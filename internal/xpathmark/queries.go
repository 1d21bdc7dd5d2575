// Package xpathmark provides the XPathMark-style query set QP01–QP23
// over XMark documents [Franceschet, XSym '05]. The set is interesting
// for the paper's evaluation (§6) because it exercises every XPath axis —
// including the backward and sibling axes that path-based pruners cannot
// handle — plus nested predicates, boolean connectives and functions.
//
// QP01–QP08 reconstruct the published A-set; the remainder follow the
// B/C-set pattern (axes and functions), with QP09 and QP11 being the
// sibling/backward-axis queries the paper's §4.3 calls out, and QP13 the
// deliberately unselective query for which (per Table 1) nearly the whole
// document must be kept.
//
// Defended by: Table 1 (its QP rows).
package xpathmark

// Query is one benchmark query (pure XPath 1.0).
type Query struct {
	ID     string
	Source string
}

// Queries lists QP01–QP23.
var Queries = []Query{
	{"QP01", `/site/closed_auctions/closed_auction/annotation/description/text/keyword`},
	{"QP02", `//closed_auction//keyword`},
	{"QP03", `/site/closed_auctions/closed_auction//keyword`},
	{"QP04", `/site/closed_auctions/closed_auction[annotation/description/text/keyword]/date`},
	{"QP05", `/site/closed_auctions/closed_auction[descendant::keyword]/date`},
	{"QP06", `/site/people/person[profile/gender and profile/age]/name`},
	{"QP07", `/site/people/person[phone or homepage]/name`},
	{"QP08", `/site/people/person[address and (phone or homepage) and (creditcard or profile)]/name`},
	{"QP09", `/site/regions/*/item[parent::namerica or parent::samerica]/name`},
	{"QP10", `//keyword/ancestor::listitem/text/keyword`},
	{"QP11", `/site/open_auctions/open_auction/bidder[following-sibling::bidder]`},
	{"QP12", `/site/open_auctions/open_auction/bidder[preceding-sibling::bidder]`},
	{"QP13", `/site//node()`},
	{"QP14", `/site/regions/*/item[following::item]/name`},
	{"QP15", `//person[profile/@income]/name`},
	{"QP16", `/site/open_auctions/open_auction/bidder[1]/increase`},
	{"QP17", `/site/open_auctions/open_auction/bidder[last()]/increase`},
	{"QP18", `//person[address/country = "United States"]/name`},
	{"QP19", `//keyword/ancestor-or-self::node()/self::text`},
	{"QP20", `//open_auction[count(bidder) > 3]/@id`},
	{"QP21", `//item[contains(description, "gold")]/name`},
	{"QP22", `//mail[preceding::mail]/from/text()`},
	{"QP23", `/site/people/person/watches/watch/@open_auction`},
}
