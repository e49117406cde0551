//go:build !linux

package main

import "syscall"

// helperSysProcAttr has no parent-death signal to offer off Linux; the
// crash test's deferred Kill is the only cleanup there.
func helperSysProcAttr() *syscall.SysProcAttr { return nil }
