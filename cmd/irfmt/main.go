// Command irfmt parses, checks and pretty-prints .ir files — the
// gofmt/vet analogue for the textual IR. It is handy when writing app
// packages or benchmark cases by hand: it reports parse and link errors
// with positions, and normalizes formatting via the canonical printer.
//
// Usage:
//
//	irfmt file.ir...        # print the formatted program to stdout
//	irfmt -w file.ir...     # rewrite the files in place
//	irfmt -check file.ir... # parse and link only; report errors
//
// Files are linked against the built-in Android/Java framework model, so
// references to framework classes resolve.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"flowdroid/internal/framework"
	"flowdroid/internal/ir"
	"flowdroid/internal/irtext"
)

func main() {
	var (
		write = flag.Bool("w", false, "write the formatted output back to the files")
		check = flag.Bool("check", false, "only parse and link; print nothing on success")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: irfmt [-w|-check] file.ir...")
		os.Exit(2)
	}
	exit := 0
	for _, path := range flag.Args() {
		if err := run(path, *write, *check); err != nil {
			fmt.Fprintln(os.Stderr, "irfmt:", err)
			exit = 1
		}
	}
	os.Exit(exit)
}

func run(path string, write, check bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	prog := framework.NewProgram()
	if err := irtext.ParseInto(prog, string(data), path); err != nil {
		return err
	}
	if err := prog.Link(); err != nil {
		return err
	}
	if check {
		return nil
	}
	var sb strings.Builder
	for _, c := range prog.Classes() {
		if c.Shared() { // a framework stub, not part of the file
			continue
		}
		sb.WriteString(ir.PrintClass(c))
		sb.WriteString("\n")
	}
	if write {
		return os.WriteFile(path, []byte(sb.String()), 0o644)
	}
	fmt.Print(sb.String())
	return nil
}
