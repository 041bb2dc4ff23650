// Command synergy-lint runs the repository's protocol-aware static analysis
// over the module and exits non-zero on violations.
//
// Usage:
//
//	synergy-lint [-rules] [-json] [dir|./...]
//
// The argument names the module root (a directory containing go.mod, or a
// "./..." pattern rooted there); it defaults to the current directory. Every
// non-test package of the module is loaded, type-checked and analyzed.
// Findings print as file:line:col: rule: message. There is no per-line
// suppression: a deliberate exception is a row in the rule's table in
// internal/lint, and -rules lists the rules.
//
// With -json the findings are emitted as a JSON array on stdout
// ([{"file":…,"line":…,"col":…,"rule":…,"message":…}, …] — an empty array
// when clean) for CI artifact consumption; exit codes are unchanged.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/synergy-ft/synergy/internal/lint"
)

func main() {
	rules := flag.Bool("rules", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Parse()

	analyzers := lint.DefaultAnalyzers()
	if *rules {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name(), a.Doc())
		}
		return
	}

	root := "."
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: synergy-lint [-rules] [dir|./...]")
		os.Exit(2)
	}
	if flag.NArg() == 1 {
		// Accept a go-style package pattern: the loader always walks the
		// whole module, so ./... and the module root are the same request.
		root = strings.TrimSuffix(flag.Arg(0), "...")
		root = strings.TrimSuffix(root, string(filepath.Separator))
		root = strings.TrimSuffix(root, "/")
		if root == "" {
			root = "."
		}
	}
	moduleRoot, err := findModuleRoot(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "synergy-lint:", err)
		os.Exit(2)
	}

	pkgs, err := lint.Load(moduleRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "synergy-lint:", err)
		os.Exit(2)
	}
	findings := lint.Run(pkgs, analyzers)
	if *jsonOut {
		type jsonFinding struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Rule    string `json:"rule"`
			Message string `json:"message"`
		}
		report := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			report = append(report, jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
				Rule: f.Rule, Message: f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "synergy-lint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "synergy-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// findModuleRoot walks upward from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("no go.mod found from %s upward", dir)
		}
		abs = parent
	}
}
