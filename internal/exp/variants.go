package exp

import (
	"context"
	"fmt"

	"branchprof/internal/engine"
	"branchprof/internal/mfc"
	"branchprof/internal/vm"
	"branchprof/internal/workloads"
)

// variant is the second build of a compile-variant study (Table 1, the
// inlining ablation, the select study): every workload's first dataset
// is measured once plain and once under these compiler options and VM
// configuration.
type variant struct {
	study   string // names the study in errors, e.g. "table1"
	tag     string // marks the variant's errors, e.g. "DCE"; empty reuses the plain wording
	options mfc.Options
	config  vm.Config
}

// variantPair is one workload's two measurements of its first dataset.
type variantPair struct {
	w              *workloads.Workload
	plain, variant *engine.Outcome
}

// measureVariants measures every workload's first dataset plain and
// under v on the package engine's worker pool. Each input is generated
// once and shared by both builds. Cell 2i is workload i's plain build
// and cell 2i+1 its variant, and the pool reports the first error in
// index order, so a failure surfaces exactly as a serial pass over
// workloads.All() would hit it first. The plain build is the one the
// collection and the other variant studies measure too, so after the
// first study it is a memory-cache or in-flight hit.
func measureVariants(ctx context.Context, v variant) ([]variantPair, error) {
	eng := Engine()
	all := workloads.All()
	pairs := make([]variantPair, len(all))
	inputs := make([][]byte, len(all))
	for i, w := range all {
		pairs[i].w = w
		inputs[i] = w.Datasets[0].Gen()
	}
	err := eng.ParallelContext(ctx, 2*len(all), func(j int) error {
		i, isVariant := j/2, j%2 == 1
		w := all[i]
		spec := engine.Spec{Name: w.Name, Source: w.Source, Dataset: w.Datasets[0].Name, Input: inputs[i]}
		if isVariant {
			spec.Options, spec.Config = v.options, v.config
		}
		out, err := eng.ExecuteContext(ctx, spec)
		switch {
		case err != nil && isVariant && v.tag != "":
			return fmt.Errorf("exp: %s measuring %s (%s): %w", v.study, w.Name, v.tag, err)
		case err != nil:
			return fmt.Errorf("exp: %s measuring %s: %w", v.study, w.Name, err)
		case isVariant:
			pairs[i].variant = out
		default:
			pairs[i].plain = out
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pairs, nil
}
