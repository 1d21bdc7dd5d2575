package xmlproj

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"xmlproj/internal/xmark"
	"xmlproj/internal/xpathmark"
)

// q10Serialized pins Result.Serialized for the benchmark's Q10 set on
// XMark at factor 0.01, seed 42, loaded from its serialisation: item
// count and the SHA-256 of the rendered answer, recorded before
// xquery.Serialize wrote node items straight into its builder.
var q10Serialized = []struct {
	id    string
	count int
	sum   string
}{
	{"QM01", 1, "6ac859789934afca2c8cc7968b78b42185bc391bf00b8ced175cb6579b95e447"},
	{"QM06", 1, "16badfc6202cb3f8889e0f2779b19218af4cbb736e56acadce8148aba9a7a9f8"},
	{"QM07", 1, "76ba652cbd2ef1931d0546ac1c9d8f12d21c81fad272b754975a0b1561dda275"},
	{"QM14", 139, "1f76f6187668bb16a66d3a3df1cb5e6a1a3caa0b88b6f2022a4a3adde1015ef0"},
	{"QM20", 1, "350d99db2aa3d6e5e591925d6cb4ae361978869503b450489fa53237783de78a"},
	{"QP09", 100, "a53df64efff7da12d6a787de9707b984fdca580a10a96a6a9de6afc53d1ca1ec"},
	{"QP11", 152, "aa79ebe14ba3b59cdcdaea084db48f8b7632d625908e07d825bbfb22153a60a1"},
	{"QP13", 22994, "f22983d27195033c1850a59eed1dec68aa339dcb1d196bd90e59fcd266053fc4"},
	{"QP19", 454, "8fe111efca115b2d19cb94fd8e63c7cdce9cf5e692cfaeed1cbeedc0bf9304e5"},
	{"QP21", 139, "b2e561ced02c82d39eed169c543e68a8106f0be9dd7f1a34e121597a64662638"},
}

func TestSerializedPinnedOnQ10(t *testing.T) {
	doc, err := ParseXMLString(xmark.NewGenerator(0.01, 42).Document().XML())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range q10Serialized {
		src := ""
		if q := xmark.ByID(want.id); q != nil {
			src = q.Source
		} else {
			src = xpathmark.ByID(want.id).Source
		}
		q, err := Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", want.id, err)
		}
		res, err := q.Evaluate(doc)
		if err != nil {
			t.Fatalf("%s: %v", want.id, err)
		}
		sum := sha256.Sum256([]byte(res.Serialized))
		if got := hex.EncodeToString(sum[:]); res.Count != want.count || got != want.sum {
			t.Errorf("%s: %d items, SHA-256 %s; pinned %d items, %s", want.id, res.Count, got, want.count, want.sum)
		}
	}
}
