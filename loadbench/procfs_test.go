package main

import (
	"os"
	"testing"
)

func TestParseProcStat(t *testing.T) {
	// The command name holds a space and a ')', so fields must be counted
	// from the last ')'. utime (field 14) is 250, stime (field 15) is 31.
	s := "4242 (comic) serve) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 31 0 0 20 0 9 0 100 1000 50 18446744073709551615\n"
	got, err := parseProcStat(s)
	if err != nil || got != 281 {
		t.Errorf("parseProcStat = %d, %v; want 281", got, err)
	}
	for _, bad := range []string{"", "4242 comic S 1", "4242 (comic) S 1 2 3", "1 (x) S 1 1 1 0 -1 0 0 0 0 0 nan 3"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) accepted malformed input", bad)
		}
	}
}

func TestParseStatmRSS(t *testing.T) {
	got, err := parseStatmRSS("52000 31337 800 200 0 40000 0\n")
	if err != nil || got != 31337 {
		t.Errorf("parseStatmRSS = %d, %v; want 31337", got, err)
	}
	if _, err := parseStatmRSS("12"); err == nil {
		t.Error("parseStatmRSS accepted one field")
	}
}

func TestParseCPUStatAndStealFrac(t *testing.T) {
	a, err := parseCPUStat("cpu  100 0 50 800 10 0 0 40 7 0\ncpu0 50 0 25 400 5 0 0 20 0 0\nintr 1\n")
	if err != nil {
		t.Fatal(err)
	}
	// total sums the first eight fields; guest (7) is inside user already.
	if a.total != 1000 || a.steal != 40 {
		t.Fatalf("parseCPUStat = %+v, want total 1000 steal 40", a)
	}
	b := cpuTimes{total: 1200, steal: 90}
	if got := stealFrac(a, b); got != 0.25 {
		t.Errorf("stealFrac = %v, want 0.25", got)
	}
	if got := stealFrac(b, b); got != 0 {
		t.Errorf("stealFrac over no time = %v, want 0", got)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8\n", "cpu 1 2 3\n", "cpu 1 2 3 4 5 6 7 x\n"} {
		if _, err := parseCPUStat(bad); err == nil {
			t.Errorf("parseCPUStat(%q) accepted malformed input", bad)
		}
	}
}

func TestProcReadersOnThisProcess(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Errorf("procCPU: %v", err)
	}
	if rss, err := procRSS(os.Getpid()); err != nil || rss == 0 {
		t.Errorf("procRSS = %d, %v", rss, err)
	}
	if c, err := machineCPU(); err != nil || c.total == 0 {
		t.Errorf("machineCPU = %+v, %v", c, err)
	}
}
