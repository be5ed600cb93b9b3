package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when a test re-executes this binary
// with GCBENCH_RUN_MAIN set, so tests see its real exit code and output.
func TestMain(m *testing.M) {
	if os.Getenv("GCBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadInvocationsExit2: values the shared flag binding rejects exit 2
// with an error naming the flag instead of running a default.
func TestBadInvocationsExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-seed", "0"}, "-seed"},
		{[]string{"-exp", "fig1", "-quick", "-seed", "0"}, "-seed"},
		{[]string{"-exp", "fig1", "-quick", "-sockets", "-3"}, "-sockets"},
		{[]string{"-exp", "fig1", "-quick", "-sockets", "0"}, "-sockets"},
		{[]string{"-exp", "fig99"}, "fig99"},
		// cap-race named a fault site that no longer exists: a plan
		// naming it is refused, never silently ignored.
		{[]string{"-exp", "smr1", "-quick", "-fault-plan", "cap-race=0.1"}, "cap-race"},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "GCBENCH_RUN_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%q: %v, want exit status 2", c.args, err)
		}
		if !strings.Contains(stderr.String(), c.want) || stdout.Len() > 0 {
			t.Errorf("%q: stderr %q, stdout %q; want %q on stderr alone", c.args, stderr.String(), stdout.String(), c.want)
		}
	}
}
