package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// environment is the header of a result file: what produced the numbers.
// Two result files are comparable only if everything here but the revision
// is equal.
type environment struct {
	Revision       string  `json:"revision"`
	CPUModel       string  `json:"cpu_model"`
	NumCPU         int     `json:"nproc"`
	ChildProcs     int     `json:"child_gomaxprocs"`
	GeneratorProcs int     `json:"generator_gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	Kernel         string  `json:"kernel"`
	Seed           uint64  `json:"seed"`
	Runs           int     `json:"runs"`
	Seconds        float64 `json:"seconds"`
	ScratchFSType  string  `json:"scratch_fs_type"` // filesystem holding the WAL directories (statfs f_type)
}

// comparableWith reports the first field that makes two result files
// incomparable, or "".
func (e environment) comparableWith(o environment) string {
	e.Revision, o.Revision = "", ""
	switch {
	case e.CPUModel != o.CPUModel:
		return "cpu_model"
	case e.NumCPU != o.NumCPU:
		return "nproc"
	case e.ChildProcs != o.ChildProcs:
		return "child_gomaxprocs"
	case e.GeneratorProcs != o.GeneratorProcs:
		return "generator_gomaxprocs"
	case e.GoVersion != o.GoVersion:
		return "go_version"
	case e.Kernel != o.Kernel:
		return "kernel"
	case e.Seed != o.Seed:
		return "seed"
	case e.Runs != o.Runs:
		return "runs"
	case e.Seconds != o.Seconds:
		return "seconds"
	case e.ScratchFSType != o.ScratchFSType:
		return "scratch_fs_type"
	}
	return ""
}

func readEnvironment(root, scratch string, seed uint64, runs int, seconds float64) environment {
	e := environment{
		Revision:       "unknown",
		CPUModel:       "unknown",
		NumCPU:         runtime.NumCPU(),
		ChildProcs:     childProcs,
		GeneratorProcs: runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		Kernel:         "unknown",
		Seed:           seed,
		Runs:           runs,
		Seconds:        seconds,
		ScratchFSType:  "unknown",
	}
	// The checkout a driver runs in is not a git repository; the revision is
	// then simply unknown.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		e.Revision = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	var fs syscall.Statfs_t
	if err := syscall.Statfs(scratch, &fs); err == nil {
		e.ScratchFSType = fsTypeName(int64(fs.Type))
	}
	return e
}

// fsTypeName names the statfs magic numbers one is likely to meet; fsync
// costs differ by orders of magnitude between them, which is why the header
// records it.
func fsTypeName(t int64) string {
	switch t {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return "0x" + strconv.FormatInt(t, 16)
}
