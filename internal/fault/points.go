package fault

// Canonical injection points. Each is called through exactly one hook
// shape (noted per point); arming a point with a mismatched rule kind
// is a no-op.
const (
	// SpillWrite (Err): a spill-tier entry write fails with the
	// injected error before any bytes land (the entry is dropped).
	SpillWrite = "spill.write"
	// SpillRead (Err): a spill-tier entry read fails with the injected
	// error; the lookup reads as a miss.
	SpillRead = "spill.read"
	// SpillTorn (Torn): a spill entry's framed bytes are truncated to
	// a random prefix but the rename still publishes the file,
	// simulating a crash mid-write caught later by the read checksum.
	SpillTorn = "spill.torn"
	// MmapOpen (Fail): the mmap syscall path is skipped so OpenMmap
	// exercises its read-into-memory fallback.
	MmapOpen = "mmap.open"
	// WorkerDelay (Sleep): a sweep cell stalls for the injected
	// duration before computing (slow/wedged worker).
	WorkerDelay = "worker.delay"
	// CellPanic (Fail): a sweep cell panics mid-compute.
	CellPanic = "cell.panic"
)
