package main

// The benchmark's inputs, frozen as text so that a change to
// internal/xmark or internal/xpathmark cannot silently move a metric.

// docFactor maps a document name to its xmarkgen -factor.
var docFactor = map[string]string{
	"d1":  "0.01", // 0.68 MB
	"d3":  "0.03", // 2.0 MB
	"d10": "0.1",  // 6.7 MB, above the L2 cache
	"d30": "0.3",  // 20 MB, above auto's 4 MiB parallel threshold
}

// projection is a query whose projector the prune workloads use.
type projection struct {
	Name, Query string
}

var (
	projLow  = projection{"low", `/site/regions/africa/item/location`} // keeps ~0.07 %
	projMid  = projection{"mid", `//person[emailaddress]/name`}        // keeps ~2 %
	projFull = projection{"full", `//node()`}                          // keeps 100 %
)

// query is one member of the Q10 query set.
type query struct {
	ID, Source string
}

// q10 is the answer_* query set: ten XMark / XPathMark queries that are
// linear-time in the repository's evaluator and span 0.2 %-100 % of the
// document kept. The join queries (QM08-QM12, QP14) are super-linear
// and excluded.
var q10 = []query{
	{"QM01", `for $b in /site/people/person[@id = "person0"] return $b/name/text()`},
	{"QM06", `for $b in /site/regions return count($b//item)`},
	{"QM07", `for $p in /site
return count($p//description) + count($p//annotation) + count($p//emailaddress)`},
	{"QM14", `for $i in /site//item
where contains(string(exactly-one($i/description)), "gold")
return $i/name/text()`},
	{"QM20", `<result>
 <preferred>{ count(/site/people/person/profile[@income >= 100000]) }</preferred>
 <standard>{ count(/site/people/person/profile[@income < 100000 and @income >= 30000]) }</standard>
 <challenge>{ count(/site/people/person/profile[@income < 30000]) }</challenge>
 <na>{ count(for $p in /site/people/person where empty($p/profile/@income) return $p) }</na>
</result>`},
	{"QP09", `/site/regions/*/item[parent::namerica or parent::samerica]/name`},
	{"QP11", `/site/open_auctions/open_auction/bidder[following-sibling::bidder]`},
	{"QP13", `/site//node()`},
	{"QP19", `//keyword/ancestor-or-self::node()/self::text`},
	{"QP21", `//item[contains(description, "gold")]/name`},
}

// queryByID returns the Q10 member with the given ID.
func queryByID(id string) query {
	for _, q := range q10 {
		if q.ID == id {
			return q
		}
	}
	panic("benchmark: no Q10 query " + id) // class names come from q10 itself
}

// multi4 are four low-selectivity projections over disjoint subtrees,
// for the shared-scan layer metric.
var multi4 = []string{
	`/site/regions/africa/item/location`,
	`/site/people/person/name`,
	`/site/open_auctions/open_auction/initial`,
	`/site/categories/category/name`,
}
