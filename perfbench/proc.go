package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// cmdTimeout bounds every command invocation, so a hung command fails
// its operation instead of the whole run.
const cmdTimeout = 150 * time.Second

// procResult is one finished command invocation as a user sees it:
// host time, the child's CPU and peak resident set, and its output.
type procResult struct {
	wall   time.Duration
	cpu    time.Duration
	rssKB  int64
	stdout []byte
	stderr []byte
	err    error
}

// rusageOf extracts CPU time and peak RSS from a finished process.
func rusageOf(ps interface{ SysUsage() any }) (time.Duration, int64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok || ru == nil {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, ru.Maxrss
}

// run executes bin with args in dir and waits for it. A non-zero exit
// is returned as an error carrying the tail of stderr.
func runCmd(dir, bin string, args ...string) procResult {
	ctx, cancel := context.WithTimeout(context.Background(), cmdTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	cmd.SysProcAttr = dieWithParent()
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	start := time.Now()
	err := cmd.Run()
	res := procResult{wall: time.Since(start), stdout: out.Bytes(), stderr: errb.Bytes()}
	if cmd.ProcessState != nil {
		res.cpu, res.rssKB = rusageOf(cmd.ProcessState)
	}
	if err != nil {
		res.err = fmt.Errorf("%s %s: %v: %s", bin, strings.Join(args, " "), err, tail(errb.String(), 400))
	}
	return res
}

// dieWithParent makes a child process get SIGKILL if the harness
// dies first, so a killed run leaves no command running.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// tail keeps the last n bytes of s.
func tail(s string, n int) string {
	if len(s) > n {
		return "..." + s[len(s)-n:]
	}
	return s
}
