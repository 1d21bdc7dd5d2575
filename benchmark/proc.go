package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// digest identifies output bytes by length and SHA-256; it is an
// io.Writer so that large outputs are hashed without being held.
type digest struct {
	h hash.Hash
	n int64
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.h.Write(p)
}

func (d *digest) sum() outputID {
	return outputID{Len: d.n, SHA256: hex.EncodeToString(d.h.Sum(nil))}
}

// outputID is what golden.json stores per output.
type outputID struct {
	Len    int64  `json:"len"`
	SHA256 string `json:"sha256"`
}

func digestFile(path string) (outputID, error) {
	f, err := os.Open(path)
	if err != nil {
		return outputID{}, err
	}
	defer f.Close()
	d := newDigest()
	if _, err := io.Copy(d, f); err != nil {
		return outputID{}, err
	}
	return d.sum(), nil
}

// procResult is one finished child process.
type procResult struct {
	ms     float64 // spawn -> exit
	rssMB  float64 // ru_maxrss from wait4
	stderr []byte
}

// runProc runs one process to completion and times it from spawn to
// exit. A non-zero exit is an error carrying the child's stderr.
func runProc(bin string, args []string, stdin io.Reader, stdout io.Writer) (procResult, error) {
	cmd := exec.Command(bin, args...)
	var errBuf bytes.Buffer
	cmd.Stdin, cmd.Stdout, cmd.Stderr = stdin, stdout, &errBuf
	start := time.Now()
	err := cmd.Run()
	res := procResult{ms: float64(time.Since(start)) / 1e6, stderr: errBuf.Bytes()}
	if cmd.ProcessState != nil { // nil when the process never started
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
			res.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return res, fmt.Errorf("%s: %w: %s", bin, err, bytes.TrimSpace(errBuf.Bytes()))
	}
	return res, nil
}
