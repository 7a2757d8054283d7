package server

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"branchprof/internal/engine"
)

// cacheDirBytes sums the sizes of the engine cache entries under dir
// (finished entries and temp files; not the lock file).
func cacheDirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, de := range des {
		if name := de.Name(); !strings.HasSuffix(name, ".json") && !strings.HasSuffix(name, ".tmp") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // evicted since ReadDir
		}
		total += info.Size()
	}
	return total
}

// TestSoakCacheDirBudget: a server whose engine has a cache directory,
// fed unique inputs by concurrent profile and traced h2p requests,
// keeps that directory under its byte budget after every round, by
// evicting, without a failed request or cache write.
func TestSoakCacheDirBudget(t *testing.T) {
	dir := t.TempDir()
	const budget = 16 << 10
	eng := engine.New(engine.Options{CacheDir: dir, CacheMaxBytes: budget})
	s := newTestServer(t, Options{Engine: eng, Concurrency: 4})

	rounds, perWorker := 12, 6
	if testing.Short() {
		rounds = 4
	}
	const workers = 4
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					// Unique per request, so every measurement and every
					// replay is a new cache entry.
					input := fmt.Sprintf("%s%d-%d-%d", strings.Repeat("ab", 8+i), round, w, i)
					path, body := "/v1/profile", profileBody("soak", fmt.Sprintf("r%dw%di%d", round, w, i), mixSrc, input)
					if i%3 == 2 {
						path, body = "/v1/h2p", h2pBody("soak", "", mixSrc, input, 3)
					}
					if code, reply := doRaw(t, s, "POST", path, body); code != http.StatusOK {
						errs[w] = fmt.Errorf("%s -> %d: %.200s", path, code, reply)
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if got := cacheDirBytes(t, dir); got > budget {
			t.Fatalf("round %d: cache directory holds %d bytes, budget %d", round, got, budget)
		}
	}
	st := eng.Stats()
	if st.Evictions == 0 {
		t.Fatalf("%d unique requests under a %d-byte budget evicted nothing", rounds*workers*perWorker, budget)
	}
	if st.DiskWriteErrs != 0 || st.DiskInvalid != 0 || st.ReplayInvalid != 0 {
		t.Fatalf("cache trouble: %d write errors, %d invalid measurements, %d invalid replays",
			st.DiskWriteErrs, st.DiskInvalid, st.ReplayInvalid)
	}
	if n, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(n) == 0 {
		t.Fatal("cache directory is empty: nothing was cached")
	}
}
