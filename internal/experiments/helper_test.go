package experiments

import (
	"sync"

	"valleymap/internal/gpusim"
)

func baselineCfg() gpusim.Config { return gpusim.Baseline() }

// tinyOutputs runs every table entry once per test binary with
// tinyOpt, for the tests that read every experiment's output.
var tinyOutputs = sync.OnceValue(func() map[string]Output {
	outs := make(map[string]Output, len(table))
	for _, e := range table {
		outs[e.name] = e.run(tinyOpt())
	}
	return outs
})
