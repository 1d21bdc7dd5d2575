package scan

// What xmark_test.go, outside the package, needs of it.
const RaceEnabled = raceEnabled

// KernelOff returns opts with every start tag sent the long way, past the
// tag kernel.
func KernelOff(opts Options) Options {
	opts.general = true
	return opts
}
