package obs

import "runtime"

// RuntimeCollector samples Go runtime health at render time: live
// goroutines, heap bytes, cumulative GC pause time and GC cycles. One
// ReadMemStats per exposition (it stops the world briefly, so it runs
// only when /metrics is scraped, never on a hot path).
type RuntimeCollector struct {
	// Prefix namespaces the families (e.g. "valleyd").
	Prefix string
}

func (rc RuntimeCollector) family(b []byte, name, typ, help string, v float64) []byte {
	full := rc.Prefix + name
	b = appendHeader(b, full, help, typ)
	return appendSample(b, full, "", v)
}

// Collect implements Collector.
func (rc RuntimeCollector) Collect(b []byte) []byte {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b = rc.family(b, "_goroutines", "gauge", "Live goroutines.", float64(runtime.NumGoroutine()))
	b = rc.family(b, "_heap_alloc_bytes", "gauge", "Heap bytes allocated and in use.", float64(ms.HeapAlloc))
	b = rc.family(b, "_heap_sys_bytes", "gauge", "Heap bytes obtained from the OS.", float64(ms.HeapSys))
	b = rc.family(b, "_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause time.", float64(ms.PauseTotalNs)/1e9)
	b = rc.family(b, "_gc_cycles_total", "counter", "Completed GC cycles.", float64(ms.NumGC))
	return b
}
