package main

import (
	"syscall"
	"time"
)

// coarseSleep is the granularity of the runtime's timers when every
// thread is idle: the rest of a wait is slept with preciseSleep.
const coarseSleep = 2 * time.Millisecond

// setTimerSlack asks the kernel to wake the calling thread (locked by the
// caller) within a microsecond of its nanosleep deadline; the default
// slack is 50µs.
func setTimerSlack() {
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
}

// preciseSleep blocks the calling thread in nanosleep for d.
func preciseSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
