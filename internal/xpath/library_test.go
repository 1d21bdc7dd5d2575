package xpath_test

import (
	"slices"
	"testing"

	"xmlproj/internal/testkit"
	"xmlproj/internal/xpath"
)

// TestLibraryListed holds testkit.Functions, through which the tests of
// internal/xpathl and internal/xquery walk the function library, to the
// library.
func TestLibraryListed(t *testing.T) {
	if !slices.Equal(xpath.Names(), testkit.Functions) {
		t.Fatalf("the library has %q, testkit.Functions lists %q", xpath.Names(), testkit.Functions)
	}
}
