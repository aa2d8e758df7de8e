//! ASN and organization registries plus the two CAIDA-style mapping tables
//! the paper uses: prefix2as (RouteViews-derived origin-AS per prefix) and
//! as2org (AS-to-organization).

use crate::net::Ipv4Net;
use crate::trie::PrefixTrie;
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// An autonomous system number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}
impl fmt::Debug for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Opaque organization identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrgId(pub u32);

impl fmt::Debug for OrgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Org#{}", self.0)
    }
}

/// An organization: the unit Table 4 and Table 6 of the paper report on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Org {
    pub id: OrgId,
    pub name: String,
    /// ISO-3166-ish country code.
    pub country: String,
}

/// Registry of organizations.
#[derive(Clone, Debug, Default)]
pub struct OrgRegistry {
    orgs: Vec<Org>,
}

impl OrgRegistry {
    pub fn new() -> OrgRegistry {
        OrgRegistry::default()
    }

    pub fn add(&mut self, name: &str, country: &str) -> OrgId {
        let id = OrgId(self.orgs.len() as u32);
        self.orgs.push(Org { id, name: name.to_string(), country: country.to_string() });
        id
    }

    pub fn get(&self, id: OrgId) -> &Org {
        &self.orgs[id.0 as usize]
    }

    pub fn len(&self) -> usize {
        self.orgs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.orgs.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Org> {
        self.orgs.iter()
    }
}

/// The as2org table: maps an ASN to its owning organization.
#[derive(Clone, Debug, Default)]
pub struct As2Org {
    map: HashMap<Asn, OrgId>,
}

impl As2Org {
    pub fn new() -> As2Org {
        As2Org::default()
    }

    pub fn assign(&mut self, asn: Asn, org: OrgId) {
        self.map.insert(asn, org);
    }

    pub fn org_of(&self, asn: Asn) -> Option<OrgId> {
        self.map.get(&asn).copied()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The prefix2as table: longest-prefix-match from an address to its origin
/// AS, as built from RouteViews BGP snapshots in the real pipeline.
#[derive(Clone, Debug, Default)]
pub struct Prefix2As {
    trie: PrefixTrie<Asn>,
}

impl Prefix2As {
    pub fn new() -> Prefix2As {
        Prefix2As::default()
    }

    pub fn announce(&mut self, net: Ipv4Net, asn: Asn) {
        self.trie.insert(net, asn);
    }

    /// Origin AS of the most specific covering announcement.
    pub fn asn_of(&self, ip: Ipv4Addr) -> Option<Asn> {
        self.trie.lookup_value(ip).copied()
    }

    pub fn len(&self) -> usize {
        self.trie.len()
    }

    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }

    pub fn routes(&self) -> Vec<(Ipv4Net, Asn)> {
        self.trie.iter().into_iter().map(|(n, a)| (n, *a)).collect()
    }
}

impl Prefix2As {
    /// Parse CAIDA's RouteViews `pfx2as` text format: one
    /// `prefix<TAB>length<TAB>asn` row per line. Multi-origin rows
    /// (`asn1_asn2` or `asn1,asn2`) keep the first origin, as the paper's
    /// pipeline effectively does when attributing a victim to one AS.
    /// Lines that fail to parse are reported with their 1-based number.
    pub fn from_pfx2as(text: &str) -> Result<Prefix2As, String> {
        let mut out = Prefix2As::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            let (Some(addr), Some(len), Some(asn)) = (fields.next(), fields.next(), fields.next())
            else {
                return Err(format!("line {}: expected 3 fields", i + 1));
            };
            let addr: Ipv4Addr =
                addr.parse().map_err(|_| format!("line {}: bad address", i + 1))?;
            let len: u8 = len.parse().map_err(|_| format!("line {}: bad length", i + 1))?;
            if len > 32 {
                return Err(format!("line {}: bad length", i + 1));
            }
            // Multi-origin: take the first ASN.
            let first = asn.split(['_', ',']).next().unwrap_or(asn);
            let asn: u32 = first.parse().map_err(|_| format!("line {}: bad ASN", i + 1))?;
            out.announce(Ipv4Net::new(addr, len), Asn(asn));
        }
        Ok(out)
    }

    /// Render the table back to `pfx2as` text (sorted by prefix).
    pub fn to_pfx2as(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (net, asn) in self.routes() {
            let _ = writeln!(out, "{}\t{}\t{}", net.addr(), net.len(), asn.0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(s: &str) -> Ipv4Net {
        s.parse().unwrap()
    }
    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn org_registry_roundtrip() {
        let mut reg = OrgRegistry::new();
        let a = reg.add("TransIP B.V.", "NL");
        let b = reg.add("Google LLC", "US");
        assert_ne!(a, b);
        assert_eq!(reg.get(a).name, "TransIP B.V.");
        assert_eq!(reg.get(b).country, "US");
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.iter().count(), 2);
    }

    #[test]
    fn as2org_mapping() {
        let mut reg = OrgRegistry::new();
        let google = reg.add("Google LLC", "US");
        let mut a2o = As2Org::new();
        a2o.assign(Asn(15169), google);
        a2o.assign(Asn(396982), google); // Google Cloud shares the org
        assert_eq!(a2o.org_of(Asn(15169)), Some(google));
        assert_eq!(a2o.org_of(Asn(396982)), Some(google));
        assert_eq!(a2o.org_of(Asn(1)), None);
        assert_eq!(a2o.len(), 2);
    }

    #[test]
    fn prefix2as_more_specific_wins() {
        let mut p2a = Prefix2As::new();
        p2a.announce(net("8.0.0.0/8"), Asn(3356)); // covering aggregate
        p2a.announce(net("8.8.8.0/24"), Asn(15169)); // Google more-specific
        assert_eq!(p2a.asn_of(ip("8.8.8.8")), Some(Asn(15169)));
        assert_eq!(p2a.asn_of(ip("8.1.2.3")), Some(Asn(3356)));
        assert_eq!(p2a.asn_of(ip("9.9.9.9")), None);
    }

    #[test]
    fn routes_dump() {
        let mut p2a = Prefix2As::new();
        p2a.announce(net("1.0.0.0/24"), Asn(13335));
        p2a.announce(net("1.1.1.0/24"), Asn(13335));
        let routes = p2a.routes();
        assert_eq!(routes.len(), 2);
        assert!(routes.iter().all(|(_, a)| *a == Asn(13335)));
    }

    #[test]
    fn pfx2as_parse_and_render() {
        let text = "\
# RouteViews pfx2as snapshot
8.8.8.0\t24\t15169
1.0.0.0 24 13335
195.135.195.0\t24\t20857_199995
203.0.113.0\t24\t64500,64501
";
        let p2a = Prefix2As::from_pfx2as(text).unwrap();
        assert_eq!(p2a.len(), 4);
        assert_eq!(p2a.asn_of(ip("8.8.8.8")), Some(Asn(15169)));
        assert_eq!(p2a.asn_of(ip("1.0.0.1")), Some(Asn(13335)));
        // Multi-origin rows keep the first origin.
        assert_eq!(p2a.asn_of(ip("195.135.195.195")), Some(Asn(20857)));
        assert_eq!(p2a.asn_of(ip("203.0.113.7")), Some(Asn(64500)));
        // Roundtrip through the renderer.
        let back = Prefix2As::from_pfx2as(&p2a.to_pfx2as()).unwrap();
        assert_eq!(back.routes(), p2a.routes());
    }

    #[test]
    fn pfx2as_errors_carry_line_numbers() {
        assert!(Prefix2As::from_pfx2as("not-an-ip\t24\t1\n").unwrap_err().contains("line 1"));
        assert!(Prefix2As::from_pfx2as("8.8.8.0\t99\t1\n").unwrap_err().contains("line 1"));
        assert!(Prefix2As::from_pfx2as("\n8.8.8.0\t24\tx\n").unwrap_err().contains("line 2"));
        assert!(Prefix2As::from_pfx2as("8.8.8.0\t24\n").unwrap_err().contains("3 fields"));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Asn(15169)), "AS15169");
        assert_eq!(format!("{:?}", OrgId(3)), "Org#3");
    }
}
