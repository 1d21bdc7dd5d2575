package server

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// TestMain fails a passing run that leaves a goroutine behind: within 2 s
// of the last test the count must be back to what it was before the
// first, or the run fails with every goroutine's stack. A fuzzing run is
// not checked: the fuzzing engine starts os/signal's loop, which never
// ends.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
			time.Sleep(10 * time.Millisecond)
		}
		if after > before {
			fmt.Fprintf(os.Stderr, "goroutine leak: before=%d after=%d\n", before, after)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
			code = 1
		}
	}
	os.Exit(code)
}
