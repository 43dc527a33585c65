package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// pinToOneCPU binds the benchmark, and with it every wfsd it starts, to
// one CPU: the last of those it may run on. A closed loop over loopback
// is a ping-pong between client and server; spread over two virtual CPUs
// every request pays two cross-CPU wake-ups (an idle vCPU halts, and
// waking it is an exit to the host), and on a shared host their cost
// moves by tens of per cent for minutes at a time. On one CPU a request
// is two context switches and the host has no part in it: measured over
// ten runs of read_mix, query_p50_ms spread 0.29 unpinned and 0.04
// pinned, at a lower median. The price is stated in the run record: the
// server runs with GOMAXPROCS 1.
//
// Affinity set from inside a running Go process reaches only the calling
// thread, so the process sets it and then executes itself again: the
// mask survives exec and every thread of the new image, and every child,
// inherits it.
func pinToOneCPU() error {
	runtime.LockOSThread()
	var mask [16]uint64 // cpu_set_t: 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	allowed, last := 0, -1
	for i, word := range mask {
		allowed += bits.OnesCount64(word)
		if word != 0 {
			last = 64*i + 63 - bits.LeadingZeros64(word)
		}
	}
	if allowed <= 1 {
		runtime.UnlockOSThread()
		return nil // one CPU to begin with, or this is the image executed below
	}
	mask = [16]uint64{}
	mask[last/64] = 1 << (last % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, os.Environ())
}
