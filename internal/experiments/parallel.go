package experiments

import (
	"runtime"
	"sync"

	"github.com/bgbuster/bgbuster/internal/compositor"
	"github.com/bgbuster/bgbuster/internal/dataset"
)

// parMap runs f over every call on up to Config.Workers goroutines
// (GOMAXPROCS when zero) and returns results in call order. Each call's
// pipeline is independently seeded, so parallel execution is
// bit-identical to serial execution. Errors are recorded per call index
// and the error of the lowest-indexed failing call is returned, so the
// reported failure does not depend on goroutine scheduling.
func (c Config) parMap(calls []*dataset.Call, f func(*dataset.Call) (*callRun, error)) ([]*callRun, error) {
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(calls) {
		workers = len(calls)
	}
	if workers <= 1 {
		out := make([]*callRun, 0, len(calls))
		for _, call := range calls {
			r, err := f(call)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}

	type slot struct {
		idx  int
		call *dataset.Call
	}
	jobs := make(chan slot)
	results := make([]*callRun, len(calls))
	errs := make([]error, len(calls))

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r, err := f(j.call)
				if err != nil {
					errs[j.idx] = err
					continue
				}
				results[j.idx] = r
			}
		}()
	}
	for i, call := range calls {
		jobs <- slot{idx: i, call: call}
	}
	close(jobs)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runCalls is the common parallel pipeline helper. transform, when
// non-nil, builds each call's own mitigation hook.
func (c Config) runCalls(calls []*dataset.Call, profile compositor.Profile, transform func(*dataset.Call) compositor.VBTransform) ([]*callRun, error) {
	return c.parMap(calls, func(call *dataset.Call) (*callRun, error) {
		var tr compositor.VBTransform
		if transform != nil {
			tr = transform(call)
		}
		return c.runCall(call, profile, tr)
	})
}
