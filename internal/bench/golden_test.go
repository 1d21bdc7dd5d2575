package bench

// Golden regression test: the exact projector inferred for each of the 43
// benchmark queries over the XMark DTD. These pins document the analysis'
// behaviour query by query (e.g. QM01 keeps only the people/person/name
// spine; QM07's three count() arguments keep their ancestor spines but no
// text). Any change to approximation, extraction or inference that moves
// one of these must be reviewed against the soundness property tests and
// EXPERIMENTS.md.

import (
	"strings"
	"testing"
)

var goldenProjectors = map[string]string{
	"QM01": "name name#text people person person@id site",
	"QM02": "bidder increase increase#text open_auction open_auctions site",
	"QM03": "bidder increase increase#text open_auction open_auctions site",
	"QM04": "bidder open_auction open_auctions personref personref@person reserve reserve#text site",
	"QM05": "closed_auction closed_auctions price price#text site",
	"QM06": "africa asia australia europe item namerica regions samerica site",
	"QM07": "africa annotation asia australia categories category closed_auction closed_auctions description emailaddress europe item namerica open_auction open_auctions people person regions samerica site",
	"QM08": "annotation author author@person bold bold#text buyer buyer@person closed_auction closed_auctions date date#text description emph emph#text happiness happiness#text itemref itemref@item keyword keyword#text listitem name name#text parlist people person person@id price price#text quantity quantity#text seller seller@person site text text#text type type#text",
	"QM09": "address age age#text annotation author author@person bold bold#text business business#text buyer buyer@person city city#text closed_auction closed_auctions country country#text creditcard creditcard#text date date#text description education education#text emailaddress emailaddress#text emph emph#text europe from from#text gender gender#text happiness happiness#text homepage homepage#text incategory incategory@category interest interest@category item item@featured item@id itemref itemref@item keyword keyword#text listitem location location#text mail mailbox name name#text parlist payment payment#text people person person@id phone phone#text price price#text profile profile@income province province#text quantity quantity#text regions seller seller@person shipping shipping#text site street street#text text text#text to to#text type type#text watch watch@open_auction watches zipcode zipcode#text",
	"QM10": "address age age#text business business#text city city#text country country#text creditcard creditcard#text education education#text emailaddress emailaddress#text gender gender#text homepage homepage#text interest interest@category name name#text people person person@id phone phone#text profile profile@income province province#text site street street#text watch watch@open_auction watches zipcode zipcode#text",
	"QM11": "initial initial#text name name#text open_auction open_auctions people person profile profile@income site",
	"QM12": "initial initial#text open_auction open_auctions people person profile profile@income site",
	"QM13": "australia bold bold#text description emph emph#text item keyword keyword#text listitem name name#text parlist regions site text text#text",
	"QM14": "africa asia australia bold bold#text description emph emph#text europe item keyword keyword#text listitem name name#text namerica parlist regions samerica site text text#text",
	"QM15": "annotation closed_auction closed_auctions description emph keyword keyword#text listitem parlist site text",
	"QM16": "annotation closed_auction closed_auctions description emph keyword keyword#text listitem parlist seller seller@person site text",
	"QM17": "homepage homepage#text name name#text people person site",
	"QM18": "open_auction open_auctions reserve reserve#text site",
	"QM19": "africa asia australia europe item location location#text name name#text namerica regions samerica site",
	"QM20": "people person profile profile@income site",
	"QP01": "annotation bold bold#text closed_auction closed_auctions description emph emph#text keyword keyword#text site text",
	"QP02": "annotation bold bold#text closed_auction closed_auctions description emph emph#text keyword keyword#text listitem parlist site text",
	"QP03": "annotation bold bold#text closed_auction closed_auctions description emph emph#text keyword keyword#text listitem parlist site text",
	"QP04": "annotation closed_auction closed_auctions date date#text description keyword site text",
	"QP05": "annotation bold closed_auction closed_auctions date date#text description emph keyword listitem parlist site text",
	"QP06": "age gender name name#text people person profile site",
	"QP07": "homepage name name#text people person phone site",
	"QP08": "address creditcard homepage name name#text people person phone profile site",
	"QP09": "item name name#text namerica regions samerica site",
	"QP10": "africa annotation asia australia bold bold#text categories category closed_auction closed_auctions description emph emph#text europe item keyword keyword#text listitem mail mailbox namerica open_auction open_auctions parlist regions samerica site text",
	"QP11": "bidder date date#text increase increase#text open_auction open_auctions personref personref@person site time time#text",
	"QP12": "bidder date date#text increase increase#text open_auction open_auctions personref personref@person site time time#text",
	"QP13": "address africa age age#text annotation asia australia author author@person bidder bold bold#text business business#text buyer buyer@person categories category category@id catgraph city city#text closed_auction closed_auctions country country#text creditcard creditcard#text current current#text date date#text description edge edge@from edge@to education education#text emailaddress emailaddress#text emph emph#text end end#text europe from from#text gender gender#text happiness happiness#text homepage homepage#text incategory incategory@category increase increase#text initial initial#text interest interest@category interval item item@featured item@id itemref itemref@item keyword keyword#text listitem location location#text mail mailbox name name#text namerica open_auction open_auction@id open_auctions parlist payment payment#text people person person@id personref personref@person phone phone#text price price#text privacy privacy#text profile profile@income province province#text quantity quantity#text regions reserve reserve#text samerica seller seller@person shipping shipping#text site start start#text street street#text text text#text time time#text to to#text type type#text watch watch@open_auction watches zipcode zipcode#text",
	"QP14": "africa asia australia europe item name name#text namerica regions samerica site",
	"QP15": "name name#text people person profile profile@income site",
	"QP16": "bidder increase increase#text open_auction open_auctions site",
	"QP17": "bidder increase increase#text open_auction open_auctions site",
	"QP18": "address country country#text name name#text people person site",
	"QP19": "africa annotation asia australia bold bold#text categories category closed_auction closed_auctions description emph emph#text europe item keyword keyword#text listitem mail mailbox namerica open_auction open_auctions parlist regions samerica site text text#text",
	"QP20": "bidder open_auction open_auction@id open_auctions site",
	"QP21": "africa asia australia bold bold#text description emph emph#text europe item keyword keyword#text listitem name name#text namerica parlist regions samerica site text text#text",
	"QP22": "africa asia australia europe from from#text item mail mailbox namerica regions samerica site",
	"QP23": "people person site watch watch@open_auction watches",
}

func TestGoldenProjectors(t *testing.T) {
	w := NewWorkload(0.001, 1)
	for _, q := range AllQueries() {
		want, ok := goldenProjectors[q.ID]
		if !ok {
			t.Errorf("%s: no golden entry", q.ID)
			continue
		}
		pr, err := w.Projector(q)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if got := strings.Join(pr.Names(), " "); got != want {
			t.Errorf("%s projector changed:\n got: %s\nwant: %s", q.ID, got, want)
		}
	}
}

// TestQM14KeepsWhatQP21Keeps: QM14 asks QP21's question through
// string(exactly-one(…)), and the wrappers must cost no name. A nested
// call's extraction once read the whole item subtree here.
func TestQM14KeepsWhatQP21Keeps(t *testing.T) {
	w := NewWorkload(0.001, 1)
	names := map[string]string{}
	for _, q := range AllQueries() {
		if q.ID == "QM14" || q.ID == "QP21" {
			pr, err := w.Projector(q)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			names[q.ID] = pr.String()
		}
	}
	if names["QM14"] != names["QP21"] {
		t.Errorf("QM14 keeps %s, QP21 keeps %s", names["QM14"], names["QP21"])
	}
}
