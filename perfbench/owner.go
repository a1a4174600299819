package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/par"
)

// owner holds every resource the benchmark creates — listeners, the
// job manager, temp directories — as release functions run in reverse
// order exactly once, whichever exit path gets there first: normal
// return, a failed check, a panic, SIGINT/SIGTERM or the watchdog.
type owner struct {
	mu       sync.Mutex
	releases []func()
	once     sync.Once

	// Recorded for the leftovers check.
	addrs []string
	dirs  []string
}

// onRelease registers fn to run at release, before everything
// registered earlier.
func (o *owner) onRelease(fn func()) {
	o.mu.Lock()
	o.releases = append(o.releases, fn)
	o.mu.Unlock()
}

// listener records a loopback address whose port must refuse
// connections after release.
func (o *owner) listener(addr string) {
	o.mu.Lock()
	o.addrs = append(o.addrs, addr)
	o.mu.Unlock()
}

// tempDir creates a directory under base that release removes.
func (o *owner) tempDir(base, pattern string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, fmt.Sprintf("%s-%d-*", pattern, os.Getpid()))
	if err != nil {
		return "", err
	}
	o.mu.Lock()
	o.dirs = append(o.dirs, dir)
	o.mu.Unlock()
	o.onRelease(func() { os.RemoveAll(dir) })
	return dir, nil
}

// release runs every registered release function once, newest first.
func (o *owner) release() {
	o.once.Do(func() {
		o.mu.Lock()
		fns := o.releases
		o.releases = nil
		o.mu.Unlock()
		for i := len(fns) - 1; i >= 0; i-- {
			fns[i]()
		}
	})
}

// leftovers checks, after release, that nothing the benchmark created
// survives: every recorded port refuses connections, par's worker
// budget is fully returned, the goroutine count is back to baseline,
// no child process exists and every temp directory is gone.
func (o *owner) leftovers(baseGoroutines int) []string {
	var bad []string
	for _, addr := range o.addrs {
		c, err := net.DialTimeout("tcp", addr, 500*time.Millisecond)
		if err == nil {
			c.Close()
			bad = append(bad, "listener still accepts on "+addr)
		} else if !errors.Is(err, syscall.ECONNREFUSED) {
			bad = append(bad, fmt.Sprintf("dial %s after release: %v (want connection refused)", addr, err))
		}
	}
	if n := par.InUse(); n != 0 {
		bad = append(bad, fmt.Sprintf("par.InUse() = %d after release", n))
	}
	// Connection and worker goroutines exit asynchronously after their
	// owners' stop calls return; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		bad = append(bad, fmt.Sprintf("%d goroutines after release, baseline %d:\n%s", n, baseGoroutines, buf))
	}
	if kids := childProcesses(); len(kids) > 0 {
		bad = append(bad, "child processes still running: "+strings.Join(kids, " "))
	}
	for _, d := range o.dirs {
		if _, err := os.Stat(d); !errors.Is(err, os.ErrNotExist) {
			bad = append(bad, "temp dir not removed: "+d)
		}
	}
	return bad
}

// childProcesses lists the pids of this process's children, read from
// every thread's /proc children list.
func childProcesses() []string {
	files, _ := filepath.Glob("/proc/self/task/*/children")
	var kids []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		kids = append(kids, strings.Fields(string(b))...)
	}
	return kids
}

// sweepStale removes temp directories that earlier, killed runs left
// under base: their names carry the creating pid, and a directory is
// stale once that process is gone.
func sweepStale(base, pattern string) {
	dirs, _ := filepath.Glob(filepath.Join(base, pattern+"-*"))
	for _, d := range dirs {
		fields := strings.SplitN(strings.TrimPrefix(filepath.Base(d), pattern+"-"), "-", 2)
		pid, err := strconv.Atoi(fields[0])
		if err != nil || pid == os.Getpid() {
			continue
		}
		if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); errors.Is(err, os.ErrNotExist) {
			os.RemoveAll(d)
		}
	}
}
