// Command maxrss runs a command, passing its output through, and fails
// when the command fails or when its peak resident set size exceeds a
// ceiling. CI's scale smoke runs it as
//
//	go run .github/maxrss.go <ceiling KiB> <command> [args...]
//
// so a memory-footprint regression fails the job the way a time collapse
// does. It reads the peak from the child's rusage (Linux reports ru_maxrss
// in KiB), which covers the command itself: run a built binary, not
// `go run`, whose peak would be the larger of the toolchain's and the
// program's.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
)

func main() {
	if len(os.Args) < 3 {
		fmt.Fprintln(os.Stderr, "usage: maxrss <ceiling KiB> <command> [args...]")
		os.Exit(2)
	}
	ceiling, err := strconv.ParseInt(os.Args[1], 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "maxrss: bad ceiling: %v\n", err)
		os.Exit(2)
	}
	cmd := exec.Command(os.Args[2], os.Args[3:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "maxrss: %v\n", err)
		os.Exit(1)
	}
	peak := cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss
	fmt.Fprintf(os.Stderr, "maxrss: peak RSS %d KiB, ceiling %d KiB\n", peak, ceiling)
	if peak > ceiling {
		fmt.Fprintln(os.Stderr, "maxrss: peak RSS above the ceiling")
		os.Exit(1)
	}
}
