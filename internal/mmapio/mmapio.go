// Package mmapio maps regular files into memory for zero-read-copy
// pruning and loading. Open returns the file's content as a byte slice:
// on Linux a read-only private mapping, elsewhere (or when mapping is not
// worth it, or fails) a plain os.ReadFile. Either way the caller gets the
// whole file as one slice suitable for the in-memory prune and load
// paths; the distinction only matters for how the bytes arrived.
//
// Two workloads run through it: cli_large (xmlprune on one file) and
// answer_direct (xqrun's load). In a cold process a
// copy writes a fresh page for every 4 KiB of input, 2.6–2.9 µs each on
// a 2-vCPU host, where the mapping reads the page cache in place: xqrun
// on the 2 MB XMark document, 40 alternating pairs against os.ReadFile,
// answered QM06 in 16.32 ms against 17.13 (29 wins) and
// /site/people/person/name in 16.02 against 17.46 (34 wins), with 1 373
// minor faults against 1 864.
//
// Defended by: `cli_large` and `answer_direct`, and `mmapio.open_us`.
package mmapio

import "os"

// minMapSize is the smallest file worth mapping: below this a single
// read syscall into a pooled buffer beats the mmap/munmap round trip
// and its page-table churn.
const minMapSize = 64 << 10

// Data is an opened file's content. Close releases it (munmap for a
// mapping, a no-op for read files); the slice must not be used after
// Close.
type Data struct {
	b      []byte
	mapped bool
}

// Bytes is the file content. Mapped data is read-only: writing to it
// faults.
func (d *Data) Bytes() []byte { return d.b }

// Close releases the content. Safe to call more than once.
func (d *Data) Close() error {
	b, mapped := d.b, d.mapped
	d.b, d.mapped = nil, false
	if !mapped || b == nil {
		return nil
	}
	return munmap(b)
}

// Open returns path's content. Regular files of at least 64 KiB are
// memory-mapped where the platform supports it; short files,
// irregular files and failed mappings fall back to reading.
func Open(path string) (*Data, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Mode().IsRegular() && fi.Size() >= minMapSize && fi.Size() <= maxMapSize {
		if b, err := mmap(f, int(fi.Size())); err == nil {
			return &Data{b: b, mapped: true}, nil
		}
		// Fall through: a file we can stat but not map (filesystem
		// without mmap support, map count limits) still reads fine.
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Data{b: b}, nil
}
