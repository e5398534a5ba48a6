// Command promcheck validates Prometheus text-format (version 0.0.4)
// exposition read from a file or stdin: family structure (HELP/TYPE
// before samples), metric and label name syntax, histogram bucket
// monotonicity, and +Inf/_count agreement. It exits non-zero on the
// first violation. It is a command-line wrapper around
// aipow.ValidateExposition, the same check powserver's end-to-end test
// applies to live /metrics scrapes.
//
// Usage:
//
//	curl -s http://host:port/metrics | promcheck
//	promcheck scrape.prom
package main

import (
	"fmt"
	"io"
	"os"

	"aipow"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "promcheck:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	var (
		data []byte
		err  error
	)
	switch len(args) {
	case 0:
		data, err = io.ReadAll(stdin)
	case 1:
		data, err = os.ReadFile(args[0])
	default:
		return fmt.Errorf("usage: promcheck [file]")
	}
	if err != nil {
		return err
	}
	if err := aipow.ValidateExposition(data); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ok: %d bytes of valid exposition\n", len(data))
	return nil
}
