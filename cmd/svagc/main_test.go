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
// with SVAGC_RUN_MAIN set, so tests see its real exit code and output.
func TestMain(m *testing.M) {
	if os.Getenv("SVAGC_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadInvocationsExit2: every out-of-range value and every flag a
// -soak or -smr run would ignore exits 2 with an error naming the flag,
// before any machine is built (nothing on stdout).
func TestBadInvocationsExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-bench", "Bisort", "-seed", "0"}, "-seed"},
		{[]string{"-bench", "Bisort", "-sockets", "0"}, "-sockets"},
		{[]string{"-bench", "Bisort", "-heap", "0"}, "-heap"},
		{[]string{"-bench", "Bisort", "-heap", "-1"}, "-heap"},
		{[]string{"-bench", "Bisort", "-phys", "-1"}, "-phys"},
		{[]string{"-bench", "Bisort", "-tenant-cap", "-1"}, "-tenant-cap"},
		{[]string{"-bench", "Bisort", "-gc-arbiter", "-1"}, "-gc-arbiter"},
		{[]string{"-smr", "16", "-tenants", "-1"}, "-tenants"},
		{[]string{"-bench", "Bisort", "-trace-buf", "-1"}, "-trace-buf"},
		{[]string{"-soak", "1s", "-fault-rate", "0.5", "-machine", "i5-7600", "-sockets", "2", "-trace", "x.json"},
			"-fault-rate is not read by -soak"},
		{[]string{"-soak", "1s", "-fault-rate", "0.1"}, "-fault-rate is not read by -soak"},
		{[]string{"-soak", "1s", "-phys", "64"}, "-phys is not read by -soak"},
		{[]string{"-smr", "16", "-gc", "copygc", "-sockets", "2", "-numa-policy", "interleave", "-phys", "1", "-swap-tier", "8"},
			"-phys is not read by -smr"},
		{[]string{"-smr", "16", "-phys", "1"}, "-phys is not read by -smr"},
		{[]string{"-smr", "16", "-trace-spill", "x.jsonl"}, "-trace-spill is not read by -smr"},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "SVAGC_RUN_MAIN=1")
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

// TestSMRReadsSocketFlags: -smr builds its machine through the shared
// options, so -sockets and -numa-policy are accepted and change the
// cluster's report.
func TestSMRReadsSocketFlags(t *testing.T) {
	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "SVAGC_RUN_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%q: %v\n%s", args, err, stderr.String())
		}
		return stdout.String()
	}
	one := run("-smr", "16")
	two := run("-smr", "16", "-sockets", "2", "-numa-policy", "interleave")
	if one == "" || one == two {
		t.Errorf("two interleaved sockets printed the one-socket report:\n%s", two)
	}
}
