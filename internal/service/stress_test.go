package service

import (
	"net/http"
	"sync"
	"testing"
)

// TestStressConcurrentProfiles fires 100 concurrent /v1/profile requests
// for the same workload and asserts the content-addressed cache absorbs
// them: one computation, everything else a hit (>90% hit rate), which is
// the acceptance bar for the valleyd smoke check. Run with -race.
func TestStressConcurrentProfiles(t *testing.T) {
	svc, ts := newTestServer(t)

	const n = 100
	var wg sync.WaitGroup
	hits := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{Workload: "MT", Scale: "tiny"})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				resp.Body.Close()
				return
			}
			var env struct {
				CacheHit bool `json:"cache_hit"`
			}
			decodeBody(t, resp, &env)
			hits[i] = env.CacheHit
		}()
	}
	wg.Wait()

	nHits := 0
	for _, h := range hits {
		if h {
			nHits++
		}
	}
	if rate := float64(nHits) / n; rate <= 0.90 {
		t.Errorf("cache hit rate = %.2f (%d/%d), want > 0.90", rate, nHits, n)
	}

	// The server-side metrics must agree.
	h, m := svc.Metrics().CacheCounts()
	if h+m != n {
		t.Errorf("metrics saw %d lookups, want %d", h+m, n)
	}
	if rate := float64(h) / float64(h+m); rate <= 0.90 {
		t.Errorf("reported hit rate = %.2f, want > 0.90", rate)
	}
}

// TestStressMixedEndpoints hammers profile + advise + simulate + metrics
// concurrently so -race can see cross-endpoint interactions.
func TestStressMixedEndpoints(t *testing.T) {
	svc, ts := newTestServer(t)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{Workload: "SP", Scale: "tiny"})
			resp.Body.Close()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := postJSON(t, ts.URL+"/v1/advise", AdviseRequest{
			ProfileRequest: ProfileRequest{Workload: "SP", Scale: "tiny"},
			Seeds:          []int64{1},
		})
		resp.Body.Close()
	}()
	var jobID string
	var jobMu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		job, err := svc.Simulate(SimulateRequest{Workloads: []string{"SP"}, Schemes: []string{"BASE"}, Scale: "tiny"})
		if err != nil {
			t.Error(err)
			return
		}
		jobMu.Lock()
		jobID = job.ID
		jobMu.Unlock()
	}()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/metrics")
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	jobMu.Lock()
	id := jobID
	jobMu.Unlock()
	if id != "" {
		if j := waitJob(t, svc, id); j.Status != JobDone {
			t.Errorf("background job ended %s: %s", j.Status, j.Error)
		}
	}
}
