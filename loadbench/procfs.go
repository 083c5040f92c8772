package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc. It is 100 on
// every Linux architecture Go supports.
const clockTicks = 100

// parseProcStat returns utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(s string) (uint64, error) {
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", s)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return ut + st, nil
}

// parseStatmRSS returns the resident page count from /proc/<pid>/statm.
func parseStatmRSS(s string) (uint64, error) {
	f := strings.Fields(s)
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %d fields, want at least 2", len(f))
	}
	return strconv.ParseUint(f[1], 10, 64)
}

// cpuTimes is the machine-wide "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal uint64
}

// parseCPUStat reads the aggregate "cpu" line of /proc/stat. total sums
// user, nice, system, idle, iowait, irq, softirq and steal; guest time is
// already inside user and nice.
func parseCPUStat(s string) (cpuTimes, error) {
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTimes{}, fmt.Errorf("/proc/stat cpu line has %d fields, want at least 9", len(f))
		}
		var t cpuTimes
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("/proc/stat cpu field %d: %w", i, err)
			}
			t.total += v
			if i == 8 {
				t.steal = v
			}
		}
		return t, nil
	}
	return cpuTimes{}, fmt.Errorf("/proc/stat has no aggregate cpu line")
}

// stealFrac is the share of machine CPU time stolen by the hypervisor
// between two readings.
func stealFrac(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

func readFile(path string) (string, error) {
	b, err := os.ReadFile(path)
	return string(b), err
}

// procCPU returns a process's user+system CPU time in seconds.
func procCPU(pid int) (float64, error) {
	s, err := readFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	t, err := parseProcStat(s)
	return float64(t) / clockTicks, err
}

// procRSS returns a process's resident set size in bytes.
func procRSS(pid int) (uint64, error) {
	s, err := readFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	pages, err := parseStatmRSS(s)
	return pages * uint64(os.Getpagesize()), err
}

// machineCPU reads the aggregate line of /proc/stat.
func machineCPU() (cpuTimes, error) {
	s, err := readFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	return parseCPUStat(s)
}
