//go:build !linux

package serve

// pinned is the no-op stand-in for platforms without thread affinity; see
// cpuslot_linux.go.
type pinned struct{}

func pinCPU() pinned   { return pinned{} }
func (*pinned) unpin() {}
