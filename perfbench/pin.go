package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on one CPU. On a shared virtual machine the host takes
// time from a virtual CPU whenever it runs something else (steal time, in
// the guest's /proc/stat), and that share changes from minute to minute
// with the host's load. With every thread of the process on one CPU, that
// CPU's steal during an interval is the time the host took from the
// benchmark, so the time metrics can leave it out (see clock).

// cpuSet is a Linux CPU affinity mask.
type cpuSet [16]uint64

func (s *cpuSet) affinity(trap uintptr) error {
	_, _, errno := syscall.RawSyscall(trap, 0, unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if errno != 0 {
		return errno
	}
	return nil
}

func (s *cpuSet) cpus() []int {
	var out []int
	for i := 0; i < len(s)*64; i++ {
		if s[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// statLine is the /proc/stat line whose steal column clock reads: the
// pinned CPU's, or the all-CPU line when the process could not be pinned.
var statLine = "cpu"

// pinOneCPU restricts the process to the highest-numbered CPU it may run on.
// A process that already runs on one CPU stays there; otherwise it sets the
// calling thread's affinity and re-executes itself, so that every thread of
// the new image inherits it. It returns only when no re-execution happened.
// GOMAXPROCS is then set to 2, so that a service_jobs client's poll runs as
// soon as its timer fires instead of waiting for the job runner to be
// preempted.
func pinOneCPU() error {
	var set cpuSet
	if err := set.affinity(syscall.SYS_SCHED_GETAFFINITY); err != nil {
		return fmt.Errorf("reading the CPU affinity: %w", err)
	}
	cpus := set.cpus()
	if len(cpus) == 1 {
		statLine = fmt.Sprintf("cpu%d", cpus[0])
		runtime.GOMAXPROCS(2)
		return nil
	}
	runtime.LockOSThread()
	one := cpuSet{}
	cpu := cpus[len(cpus)-1]
	one[cpu/64] = 1 << (cpu % 64)
	if err := one.affinity(syscall.SYS_SCHED_SETAFFINITY); err != nil {
		return fmt.Errorf("pinning to cpu%d: %w", cpu, err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, os.Environ())
}

// stealSeconds reads the cumulative steal time of statLine's CPU from
// /proc/stat, in seconds (0 where the file or the line is missing).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	prefix := statLine + " "
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 9 {
			return 0
		}
		ticks, err := strconv.ParseFloat(f[8], 64)
		if err != nil {
			return 0
		}
		return ticks / 100 // USER_HZ
	}
	return 0
}

// clock marks the start of an interval timed in wall-clock seconds less the
// host's steal time on the benchmark's CPU. /proc/stat counts steal in
// 10 ms ticks, so each interval is exact to about 10 ms.
type clock struct {
	wall  time.Time
	steal float64
}

func startClock() clock { return clock{time.Now(), stealSeconds()} }

// elapsed returns the interval's wall time, and its wall time less the
// host's steal.
func (c clock) elapsed() (wall, busy float64) {
	wall = time.Since(c.wall).Seconds()
	return wall, wall - (stealSeconds() - c.steal)
}
