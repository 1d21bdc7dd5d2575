package scan

// What the tests, xmark_test.go outside the package too, need of it.
const RaceEnabled = raceEnabled

// KernelOff returns opts with every start tag sent the long way, past the
// tag kernel.
func KernelOff(opts Options) Options {
	opts.general = true
	return opts
}

// Segments is the number of gather segments: WriteTo's Write calls.
func (sl *SpanList) Segments() int { return len(sl.spans) }

// AppendTo appends the rendered output to dst.
func (sl *SpanList) AppendTo(dst []byte) []byte {
	for _, sp := range sl.spans {
		dst = append(dst, sl.segment(sp)...)
	}
	return dst
}

// Bytes materialises the rendered output in a fresh slice.
func (sl *SpanList) Bytes() []byte { return sl.AppendTo(make([]byte, 0, sl.total)) }
