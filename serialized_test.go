package xmlproj

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"xmlproj/internal/xmark"
	"xmlproj/internal/xpathmark"
)

// pinned is one query's answer: item count and the SHA-256 of
// Result.Serialized.
type pinned struct {
	id    string
	count int
	sum   string
}

// q10Serialized pins Result.Serialized for the benchmark's Q10 set on
// XMark at factor 0.01, seed 42, loaded from its serialisation: item
// count and the SHA-256 of the rendered answer, recorded before
// xquery.Serialize wrote node items straight into its builder.
var q10Serialized = []pinned{
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

// allSerialized pins all 43 XMark and XPathMark queries on XMark at factor
// 0.003, seed 1, as the step loop that is now internal/xpath's test
// oracle answered them. For the XPathMark half that loop is also run
// beside the evaluator (internal/xpath's TestEvalDifferential); the XMark
// half is XQuery, which the oracle does not speak, and is held here.
var allSerialized = []pinned{
	{"QM01", 1, "c73b46b8cb9b8642f54ba3f2b7b1faff8d5079b1aac31a665e77fd9209bbb8be"},
	{"QM02", 36, "380db03df5cdd90fe88222aa7ac709068bf1657b3f601369dfc6bae79f4375a1"},
	{"QM03", 10, "a5ad742731ed1e27ff9d16f7c79a90b2386958692ed9472cf399a8e7637c3e71"},
	{"QM04", 1, "f0ada35966aebc57838bb1da56b4a905889b20607686b0ec46cb5cace3e24131"},
	{"QM05", 1, "5f9c4ab08cac7457e9111a30e4664920607ea2c115a1433d7be98e97e64244ca"},
	{"QM06", 1, "108c995b953c8a35561103e2014cf828eb654a99e310f87fab94c2f4b7d2a04f"},
	{"QM07", 1, "37c20f19f3272b5ccc3a5d80587eb9deb3f4afcf568c4280fb195568da8eb1a2"},
	{"QM08", 76, "f83dd610e25d2576f3173f2d0de3ec22b00e236f696bd647442671cdea16f28d"},
	{"QM09", 76, "8e19696bb45e4d35e4f14376e92d4e2133ac8bab3be892b25fbb8793ca592d4d"},
	{"QM10", 3, "affe0480eb50da46e6abd7d69f1bc455b47c6cb2e722511d8f472ac435adbdff"},
	{"QM11", 76, "8688c83a1b45672db318dce70e8a18acce1648deb362e4cf2f4e9293e3f305db"},
	{"QM12", 26, "d0409747bd711967f6a4bfe3ae627cb145ffbf865e7cd7016b4b6b5651adf54f"},
	{"QM13", 6, "71d1780689c33b4cc6681e23a98a1731b49dd1f0400a719a71532a8fe024b7fc"},
	{"QM14", 42, "9c6a254e2025746556e181b2e419b6cf3d8bfb2c06bbc6e9aa7aea9ba47d9792"},
	{"QM15", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"QM16", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"QM17", 36, "193dd5f74d6c2b76118d48b7c02a0823e8bbb64379d3c5830c9049c1f4b02ff2"},
	{"QM18", 36, "8887395f0aff8bbe12a5f9865c3f3a0e476664bab7dcaf213752988b5c02710f"},
	{"QM19", 65, "93884238b53e9e91f5ae2dc7169386a2cd6da51ea4d7ce33d77be7d12f99ad66"},
	{"QM20", 1, "bfdcb632dd70039fa1c1b6d51b1ee5b3666b0534585fb9c50643bafc5bcd6c18"},
	{"QP01", 5, "d44b14f9e4aed6690426643a6fc4127d6be0ba92c0a5895a391e66bd4fbc4f51"},
	{"QP02", 19, "1ce3385682d616fad5db0c64f8ec79ae11a056a4e536ab328927c43ae6995978"},
	{"QP03", 19, "1ce3385682d616fad5db0c64f8ec79ae11a056a4e536ab328927c43ae6995978"},
	{"QP04", 4, "33d02db8ff7d2eb04225d283d10cb651551200469f313e88a533c678903553a1"},
	{"QP05", 10, "3c4593011c38408fc41a70cb44ef034c15407d40dc9f0426f317da99cbea003c"},
	{"QP06", 8, "e274b0fa8659fca3b35b46e297e208ace3162b9f396392a5d28e4d1037717fda"},
	{"QP07", 58, "bdf4be237abbd9f1d492a4ffa7a9f14f0e6369abd50f39eae29e8420113d65db"},
	{"QP08", 22, "b52afc84d38a5d46b8b88d65d611363a6e8fc842b6cd3d45ec34d63de01b4bdc"},
	{"QP09", 31, "aaddf675dfb92188a5216dede14099e12cd9a9a562561260bb2ae373667c5290"},
	{"QP10", 75, "0ae91fa4548389a8cd76d077bd82edb6e966c83989a7c1404c84caee86d9717f"},
	{"QP11", 45, "97f23bd416738400692e3b84f855f44d68072895c9e8ce29f7429c5f7f07d6d2"},
	{"QP12", 45, "ad00b073cd85e89bdaf682bb0166a9e0d8198cdbe4673c2d7ab4b8d4495998c9"},
	{"QP13", 6870, "fce62e7c7ea741eac5fcdff3bcb6c1914ba3fd67b74bb05965f17c608c13aa11"},
	{"QP14", 64, "238f04b45bc111036edf84917142187ca75d8c4bcb11a70058c721c7834da374"},
	{"QP15", 37, "6a8d7e90e967cf37c40285d7551a63186430ca2124e5c960490bd69a6a43e9eb"},
	{"QP16", 30, "d66f30a56b4b071b2eb4bd7c00c8015c9f42d5b35c4b3a0ad24e4817be5a0fda"},
	{"QP17", 30, "cca7dc2cc78d3dbfa3483ce34f20a974bd27c8d0e847298fc5a383b54fbdf73f"},
	{"QP18", 12, "d7c7e45bf62069ebae984fea369a36b812c253105599ed97e27e920301a635f2"},
	{"QP19", 130, "aee0b7d89d7f13cb702bc5bbb9256bae7174239de3abbb98b3faa54d57792c65"},
	{"QP20", 7, "108778363d965b7a71b4a151962bac239c6fcbba2ea5d3c60b5def11f8422848"},
	{"QP21", 42, "bdfb6f96f64d82b3a36ba3abf92104939061bc0cf5e2b74af0d7f8a9c4d2e775"},
	{"QP22", 73, "f9d2125d6005d5c93c13dd1970125720ec5c723239b9bc7aff4e575500ffa6dd"},
	{"QP23", 63, "eabe8643beaaf0ef161441c258f8ea88c7d7512568cceb4130bb23de25f9e266"},
}

func benchmarkQuerySource(id string) string {
	if q := xmark.ByID(id); q != nil {
		return q.Source
	}
	return xpathmark.ByID(id).Source
}

// checkPinned evaluates each pinned query on XMark at the given factor
// and seed, loaded from its serialisation.
func checkPinned(t *testing.T, factor float64, seed int64, pins []pinned) {
	t.Helper()
	doc, err := ParseXMLString(xmark.NewGenerator(factor, seed).Document().XML())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range pins {
		q, err := Compile(benchmarkQuerySource(want.id))
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

func TestSerializedPinnedOnQ10(t *testing.T) { checkPinned(t, 0.01, 42, q10Serialized) }

func TestSerializedPinnedOnAll43(t *testing.T) { checkPinned(t, 0.003, 1, allSerialized) }

// TestEvaluateAllocs holds the two allocation patterns the evaluator shed:
// QP13 renders 6× its input and may allocate three times what it renders,
// not seven (the node-set, its copy, and the text written once at its
// size, against a buffer that doubled its way there); QM07 counts three
// //name, each one fused walk and not a 23 000-node set built, copied and
// sorted, with a slice per context node for the child step after it.
func TestEvaluateAllocs(t *testing.T) {
	doc, err := ParseXMLString(xmark.NewGenerator(0.01, 42).Document().XML())
	if err != nil {
		t.Fatal(err)
	}
	measure := func(id string) (res Result, bytes, allocs uint64) {
		q, err := Compile(benchmarkQuerySource(id))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if res, err = q.Evaluate(doc); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return res, after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	res, bytes, allocs := measure("QP13")
	t.Logf("QP13: %d bytes in %d allocations to render %d bytes", bytes, allocs, len(res.Serialized))
	if bytes > 3*uint64(len(res.Serialized)) {
		t.Errorf("QP13 allocated %d bytes to render %d", bytes, len(res.Serialized))
	}
	_, bytes, allocs = measure("QM07")
	t.Logf("QM07: %d bytes in %d allocations", bytes, allocs)
	if allocs > 2000 {
		t.Errorf("QM07 made %d allocations, want at most 2000", allocs)
	}
}
