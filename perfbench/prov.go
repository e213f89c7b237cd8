package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// commit reads the checked-out commit from .git when the working
// directory is a git checkout, without running git.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout; see source_sha256)"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if f, err := os.Open(filepath.Join(".git", "packed-refs")); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if fields := strings.Fields(sc.Text()); len(fields) == 2 && fields[1] == ref {
				return fields[0]
			}
		}
	}
	return "unknown (" + ref + ")"
}

// sourceDigest hashes every Go source file and go.mod of the checkout,
// so a result names the code it measured even outside git.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// cpuModel returns the kernel's CPU model name.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// selfTest checks that the generator is a function of the seed: the
// same seed gives the same inputs, a different seed different ones.
func selfTest() error {
	for _, w := range workloads {
		warm, open, _ := phases(5, false)
		a := generate(w, 1, warm, open).digest()
		b := generate(w, 1, warm, open).digest()
		c := generate(w, 2, warm, open).digest()
		if a != b {
			return fmt.Errorf("%s: seed 1 gave two different input schedules", w.Name)
		}
		if a == c {
			return fmt.Errorf("%s: seeds 1 and 2 gave the same input schedule", w.Name)
		}
		fmt.Printf("%s: seed 1 → %.16s (twice), seed 2 → %.16s\n", w.Name, a, c)
	}
	fmt.Println("selftest ok")
	return nil
}

// smokeTest runs every workload briefly, untraced and traced, with the
// oracle on, and fails on any wrong answer or failed request.
func smokeTest() error {
	start := time.Now()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o, err := run(w, 1, 3, trace)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			metrics := o.endToEnd
			if trace {
				metrics = o.perLayer
			}
			res := o.result(metrics())
			if !res.Correct {
				return fmt.Errorf("%s (trace %v): %s", w.Name, trace, res.Oracle)
			}
			fmt.Printf("%s trace=%v: ok, %d ops, %s\n", w.Name, trace, res.Attempted, res.Oracle)
		}
	}
	fmt.Printf("smoke ok in %.1fs\n", time.Since(start).Seconds())
	return nil
}
