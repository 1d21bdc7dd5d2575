package xmark

// Queries are the twenty XMark benchmark queries (QM01–QM20 in the
// paper's Table 1), written for the FLWR core this repository implements.
// Three queries are adapted, with the substitutions preserving each
// query's navigation (the part projector inference sees):
//
//   - QM04 used the document-order comparator "<<" between two
//     quantified bidders; it keeps the existential quantifier over
//     bidder/personref but compares on @person only.
//   - QM10 is the full grouping query with the French output element
//     names of the original, unabridged.
//   - QM18 declared a user conversion function; the multiplication is
//     inlined (the paper's analysis treats user functions as opaque
//     value-consumers anyway).
type Query struct {
	ID     string
	Source string
}

// Queries lists QM01–QM20.
var Queries = []Query{
	{"QM01", `for $b in /site/people/person[@id = "person0"] return $b/name/text()`},

	{"QM02", `for $b in /site/open_auctions/open_auction
return <increase>{ $b/bidder[1]/increase/text() }</increase>`},

	{"QM03", `for $b in /site/open_auctions/open_auction
where zero-or-one($b/bidder[1]/increase/text()) * 2 <= $b/bidder[last()]/increase/text()
return <increase first="{$b/bidder[1]/increase/text()}" last="{$b/bidder[last()]/increase/text()}"/>`},

	{"QM04", `for $b in /site/open_auctions/open_auction
where some $pr in $b/bidder/personref satisfies $pr/@person = "person20"
return <history>{ $b/reserve/text() }</history>`},

	{"QM05", `count(for $i in /site/closed_auctions/closed_auction
where $i/price/text() >= 40
return $i/price)`},

	{"QM06", `for $b in /site/regions return count($b//item)`},

	{"QM07", `for $p in /site
return count($p//description) + count($p//annotation) + count($p//emailaddress)`},

	{"QM08", `for $p in /site/people/person
let $a := for $t in /site/closed_auctions/closed_auction
          where $t/buyer/@person = $p/@id
          return $t
return <item person="{$p/name/text()}">{ count($a) }</item>`},

	{"QM09", `for $p in /site/people/person
let $a := for $t in /site/closed_auctions/closed_auction
          let $n := for $t2 in /site/regions/europe/item
                    where $t/itemref/@item = $t2/@id
                    return $t2
          where $p/@id = $t/buyer/@person
          return <item>{ $n/name/text() }</item>
return <person name="{$p/name/text()}">{ $a }</person>`},

	{"QM10", `for $i in distinct-values(/site/people/person/profile/interest/@category)
let $p := for $t in /site/people/person
          where $t/profile/interest/@category = $i
          return <personne>
                   <statistiques>
                     <sexe>{ $t/profile/gender/text() }</sexe>
                     <age>{ $t/profile/age/text() }</age>
                     <education>{ $t/profile/education/text() }</education>
                     <revenu>{ $t/profile/@income }</revenu>
                   </statistiques>
                   <coordonnees>
                     <nom>{ $t/name/text() }</nom>
                     <rue>{ $t/address/street/text() }</rue>
                     <ville>{ $t/address/city/text() }</ville>
                     <pays>{ $t/address/country/text() }</pays>
                     <email>{ $t/emailaddress/text() }</email>
                     <homepage>{ $t/homepage/text() }</homepage>
                   </coordonnees>
                   <cartePaiement>{ $t/creditcard/text() }</cartePaiement>
                 </personne>
return <categorie><id>{ $i }</id>{ $p }</categorie>`},

	{"QM11", `for $p in /site/people/person
let $l := for $i in /site/open_auctions/open_auction/initial
          where $p/profile/@income > 5000 * exactly-one($i/text())
          return $i
return <items name="{$p/name/text()}">{ count($l) }</items>`},

	{"QM12", `for $p in /site/people/person
let $l := for $i in /site/open_auctions/open_auction/initial
          where $p/profile/@income > 5000 * exactly-one($i/text())
          return $i
where $p/profile/@income > 50000
return <items person="{$p/profile/@income}">{ count($l) }</items>`},

	{"QM13", `for $i in /site/regions/australia/item
return <item name="{$i/name/text()}">{ $i/description }</item>`},

	{"QM14", `for $i in /site//item
where contains(string(exactly-one($i/description)), "gold")
return $i/name/text()`},

	{"QM15", `for $a in /site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword/text()
return <text>{ $a }</text>`},

	{"QM16", `for $a in /site/closed_auctions/closed_auction
where not(empty($a/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword/text()))
return <person id="{$a/seller/@person}"/>`},

	{"QM17", `for $p in /site/people/person
where empty($p/homepage/text())
return <person name="{$p/name/text()}"/>`},

	{"QM18", `for $i in /site/open_auctions/open_auction
return 2.20371 * zero-or-one($i/reserve/text())`},

	{"QM19", `for $b in /site/regions//item
let $k := $b/name/text()
order by zero-or-one($b/name/text()) ascending
return <item name="{$k}">{ $b/location/text() }</item>`},

	{"QM20", `<result>
 <preferred>{ count(/site/people/person/profile[@income >= 100000]) }</preferred>
 <standard>{ count(/site/people/person/profile[@income < 100000 and @income >= 30000]) }</standard>
 <challenge>{ count(/site/people/person/profile[@income < 30000]) }</challenge>
 <na>{ count(for $p in /site/people/person where empty($p/profile/@income) return $p) }</na>
</result>`},
}
