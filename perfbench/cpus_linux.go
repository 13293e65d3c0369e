package main

import (
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit mask for up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs the calling thread may run on.
func allowedCPUs() []int {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// threadCPUNanos is the CPU time the calling OS thread has used, in ns.
// Unlike wall time it does not advance while the host runs something else
// on the thread's CPU.
func threadCPUNanos() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// pinThread restricts the calling OS thread to cpus.
func pinThread(cpus ...int) error {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return e
	}
	return nil
}
