package main

import (
	"syscall"
	"time"
	"unsafe"
)

// POSIX CPU-time clocks (linux/time.h).
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

// The benchmark's timings are CPU time, not wall time: on a shared host
// the wall time of an op includes whatever the hypervisor and the other
// tenants take, which moved medians by a quarter between runs of the same
// code. The kernel's CPU clocks count only the time this process (or
// thread) actually ran; with paravirtual steal accounting that excludes
// stolen time too.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time of every thread of the process, GC included.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTime) }

// threadCPU is the CPU time of the calling OS thread; callers lock their
// goroutine to its thread first.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }
