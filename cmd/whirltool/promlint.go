package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// promlintCmd validates Prometheus text exposition format 0.0.4 — the
// whirld /metrics?format=prom output, but any exposition works. It
// checks metric-name and label syntax, TYPE declarations, and sample
// values, reporting every offending line; any error exits non-zero so
// scripts/fleet-smoke.sh can gate a live coordinator's exposition on it.
func promlintCmd(args []string) {
	fs := flag.NewFlagSet("promlint", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: whirltool promlint <file | ->

Validates Prometheus text exposition format (e.g. curl .../metrics?format=prom | whirltool promlint -).`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	var r io.Reader
	if fs.Arg(0) == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	errs, samples := promLint(r)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "whirltool: promlint:", e)
	}
	if len(errs) > 0 {
		os.Exit(1)
	}
	fmt.Printf("promlint: OK (%d samples)\n", samples)
}

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	promTypes   = map[string]bool{
		"counter": true, "gauge": true, "histogram": true,
		"summary": true, "untyped": true,
	}
)

// promLint scans one exposition, returning the per-line problems and
// the number of valid samples seen.
func promLint(r io.Reader) (errs []string, samples int) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	types := map[string]string{} // metric name → declared type
	lineNo := 0
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf("line %d: %s", lineNo, fmt.Sprintf(format, args...)))
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, ok := parsePromComment(line)
			if !ok {
				continue // free-form comment: legal
			}
			if !promNameRe.MatchString(name) {
				fail("%s for invalid metric name %q", kind, name)
				continue
			}
			if kind == "TYPE" {
				if !promTypes[rest] {
					fail("unknown TYPE %q for %s", rest, name)
				}
				if _, dup := types[name]; dup {
					fail("duplicate TYPE for %s", name)
				}
				types[name] = rest
			}
			continue
		}
		name, labels, value, ok := parsePromSample(line)
		if !ok {
			fail("unparsable sample %q", line)
			continue
		}
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		base = strings.TrimSuffix(base, "_bucket")
		if !promNameRe.MatchString(name) {
			fail("invalid metric name %q", name)
			continue
		}
		if _, declared := types[name]; !declared {
			if _, declared = types[base]; !declared {
				fail("sample %q has no preceding TYPE declaration", name)
			}
		}
		for _, l := range labels {
			if !promLabelRe.MatchString(l) {
				fail("invalid label name %q on %s", l, name)
			}
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil &&
			value != "+Inf" && value != "-Inf" && value != "NaN" {
			fail("sample %s has non-numeric value %q", name, value)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		lineNo++
		fail("read: %v", err)
	}
	return errs, samples
}

// parsePromComment splits "# HELP name ..." / "# TYPE name kind".
func parsePromComment(line string) (kind, name, rest string, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return "", "", "", false
	}
	rest = ""
	if len(fields) > 3 {
		rest = fields[3]
	}
	return fields[1], fields[2], rest, true
}

// parsePromSample splits one sample line into its metric name, label
// names, and value (an optional trailing timestamp is accepted and
// ignored). Label values may contain escaped quotes.
func parsePromSample(line string) (name string, labels []string, value string, ok bool) {
	rest := line
	if i := strings.IndexAny(rest, "{ "); i >= 0 && rest[i] == '{' {
		name = rest[:i]
		end := promLabelEnd(rest[i:])
		if end < 0 {
			return "", nil, "", false
		}
		var lok bool
		labels, lok = parsePromLabels(rest[i+1 : i+end])
		if !lok {
			return "", nil, "", false
		}
		rest = rest[i+end+1:]
	} else {
		j := strings.IndexByte(rest, ' ')
		if j < 0 {
			return "", nil, "", false
		}
		name, rest = rest[:j], rest[j:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, "", false
	}
	return name, labels, fields[0], true
}

// promLabelEnd finds the index of the closing '}' of a label set
// starting at '{', honoring escapes inside quoted values. Returns -1 if
// unterminated.
func promLabelEnd(s string) int {
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i
			}
		}
	}
	return -1
}

// parsePromLabels extracts the label names of `k="v",k2="v2"`.
func parsePromLabels(s string) (names []string, ok bool) {
	s = strings.TrimSpace(s)
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, false
		}
		names = append(names, strings.TrimSpace(s[:eq]))
		// Scan the quoted value, honoring escapes.
		i := eq + 2
		for i < len(s) {
			if s[i] == '\\' {
				i += 2
				continue
			}
			if s[i] == '"' {
				break
			}
			i++
		}
		if i >= len(s) {
			return nil, false
		}
		s = s[i+1:]
		if s == "" {
			break
		}
		if s[0] != ',' {
			return nil, false
		}
		s = strings.TrimSpace(s[1:])
	}
	return names, true
}
