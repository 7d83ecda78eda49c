package main

// The diag subcommand pulls the one-shot diagnostics bundle from a
// running serve instance and unpacks it locally:
//
//	semsim diag -addr 127.0.0.1:6060 -out /tmp/diag
//
// It fetches /debug/diag (a tar.gz of every observability surface —
// metrics exposition, expvar, the flight-recorder dump with its
// sampled spans, anomaly-profile index, SLO state, heavy hitters, build
// identity), writes each entry under -out (default semsim-diag-ADDR in
// the working directory) and prints a per-entry size summary, so "grab
// me everything off that box" is one command during an incident.

import (
	"archive/tar"
	"compress/gzip"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// maxDiagEntry bounds a single unpacked bundle entry; every entry is a
// bounded ring or snapshot server-side, so anything larger means a
// corrupt or hostile archive.
const maxDiagEntry = 64 << 20

func runDiag(args []string) error {
	fs := flag.NewFlagSet("diag", flag.ExitOnError)
	addr := fs.String("addr", "", "serve instance to pull diagnostics from (HOST:PORT, required)")
	out := fs.String("out", "", "directory to unpack the bundle into (default semsim-diag-ADDR)")
	timeout := fs.Duration("timeout", 30*time.Second, "fetch timeout")
	fs.Parse(args)
	if *addr == "" {
		return errors.New("diag needs -addr HOST:PORT")
	}
	dir := *out
	if dir == "" {
		dir = "semsim-diag-" + strings.NewReplacer(":", "-", "/", "-").Replace(*addr)
	}

	url := "http://" + *addr + "/debug/diag"
	client := &http.Client{Timeout: *timeout}
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("fetch %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetch %s: %s", url, resp.Status)
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n, err := unpackDiag(resp.Body, dir, os.Stdout)
	if err != nil {
		return fmt.Errorf("unpack bundle: %w", err)
	}
	fmt.Printf("semsim: diag: %d entries unpacked into %s\n", n, dir)
	return nil
}

// unpackDiag extracts a diag tar.gz stream into dir, printing one line
// per entry to report. Entry names are sanitized to their base name —
// the bundle is flat by construction, and this keeps a malicious
// archive from escaping dir.
func unpackDiag(r io.Reader, dir string, report io.Writer) (int, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return 0, err
	}
	defer gz.Close()
	tr := tar.NewReader(gz)
	n := 0
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if hdr.Typeflag != tar.TypeReg {
			continue
		}
		name := filepath.Base(filepath.Clean(hdr.Name))
		if name == "." || name == ".." || name == "/" {
			continue
		}
		dst := filepath.Join(dir, name)
		f, err := os.Create(dst)
		if err != nil {
			return n, err
		}
		written, err := io.Copy(f, io.LimitReader(tr, maxDiagEntry))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return n, fmt.Errorf("write %s: %w", dst, err)
		}
		fmt.Fprintf(report, "semsim: diag: %-16s %8d bytes\n", name, written)
		n++
	}
}
