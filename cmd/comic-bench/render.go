package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// record is the machine-readable output of one benchmark experiment.
type record interface {
	// render prints a human-readable summary of the record.
	render(w io.Writer) error
}

// writeRecord writes rec to path as indented JSON, the form the committed
// BENCH_*.json files and -check use.
func writeRecord(path string, rec record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printf writes one line of a human-readable summary, capturing the first
// write error in *errp. The render methods emit several lines; funneling
// the error lets them report a dead writer (a full disk behind a
// redirected stdout, a closed pipe) instead of dropping it.
func printf(w io.Writer, errp *error, format string, args ...any) {
	if _, err := fmt.Fprintf(w, format, args...); err != nil && *errp == nil {
		*errp = err
	}
}
