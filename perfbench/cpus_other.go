//go:build !linux

package main

import "time"

// allowedCPUs reports no CPUs where threads cannot be pinned, so the timed
// region runs wherever the scheduler puts it.
func allowedCPUs() []int { return nil }

func pinThread(cpus ...int) error { return nil }

var clockStart = time.Now()

// threadCPUNanos falls back to monotonic wall time where the thread CPU
// clock is not read.
func threadCPUNanos() int64 { return int64(time.Since(clockStart)) }
