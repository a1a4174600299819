package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/par"
)

// machine is the record every output carries: where the numbers were
// measured, and one copy bandwidth to set memory-bound loops against.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	ParN       int    `json:"par_n"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	LLCBytes   int64  `json:"llc_bytes"`
	RAMBytes   int64  `json:"ram_bytes"`
	bandwidth
}

// bandwidth is a STREAM-style copy measurement: the best of three
// copies between two arrays of ArrayBytes each, at least four times
// the last-level cache, counting bytes read plus bytes written. It is
// metadata, not a gated metric.
type bandwidth struct {
	CopyGBps   float64 `json:"copy_gbps"`
	ArrayBytes int64   `json:"copy_array_bytes"`
}

// machineRecord describes this machine and measures its copy
// bandwidth afresh.
func machineRecord() machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ParN:       par.N(),
		Go:         runtime.Version(),
		CPU:        procField("/proc/cpuinfo", "model name"),
		LLCBytes:   llcBytes(),
	}
	if kb, err := strconv.ParseInt(strings.Fields(procField("/proc/meminfo", "MemTotal") + " 0")[0], 10, 64); err == nil {
		m.RAMBytes = kb << 10
	}
	m.bandwidth = copyBandwidth(max(4*m.LLCBytes, 64<<20))
	return m
}

func copyBandwidth(arrayBytes int64) bandwidth {
	n := arrayBytes / 8
	src, dst := make([]uint64, n), make([]uint64, n)
	for i := range src {
		src[i] = uint64(i)
	}
	copy(dst, src) // fault the destination pages in before timing
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 3; rep++ {
		t := time.Now()
		copy(dst, src)
		best = min(best, time.Since(t))
	}
	src, dst = nil, nil
	debug.FreeOSMemory()
	return bandwidth{CopyGBps: 2 * float64(n*8) / best.Seconds() / 1e9, ArrayBytes: n * 8}
}

// procField returns the value of the first "name : value" line of a
// /proc file, or "".
func procField(path, name string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == name {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// llcBytes is the size of cpu0's highest-level cache, or 0.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, size := 0, int64(0)
	for _, d := range dirs {
		lb, err1 := os.ReadFile(filepath.Join(d, "level"))
		sb, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lb)))
		s := strings.TrimSpace(string(sb))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err == nil && level > best {
			best, size = level, v*mult
		}
	}
	return size
}

// cpuNow is the CPU time (user + system) the process has used so far.
// Unlike wall time it leaves out time the hypervisor gave to other
// machines, which on shared hosts moved wall times by half between
// runs of the same code.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}
