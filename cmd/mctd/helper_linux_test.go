package main

import "syscall"

// helperSysProcAttr makes the kernel SIGKILL the crash-test helper when
// the test binary that started it dies. The deferred Kill covers a normal
// return, but a -timeout panic exits without running defers, and the
// helper, hung on purpose, would otherwise outlive the test run.
func helperSysProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
