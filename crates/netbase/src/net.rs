//! IPv4 CIDR prefixes and the /16 and /24 granularities used throughout the
//! paper's joins.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 CIDR prefix. The address is stored canonicalized (host bits
/// zeroed).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv4Net {
    addr: u32,
    len: u8,
}

impl Ipv4Net {
    /// Build a prefix, canonicalizing the address to its network base.
    /// Panics if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Ipv4Net {
        assert!(len <= 32, "prefix length {len} out of range");
        let a = u32::from(addr) & mask(len);
        Ipv4Net { addr: a, len }
    }

    /// The whole IPv4 space, `0.0.0.0/0`.
    pub const ALL: Ipv4Net = Ipv4Net { addr: 0, len: 0 };

    /// A host route (`/32`).
    pub fn host(addr: Ipv4Addr) -> Ipv4Net {
        Ipv4Net { addr: u32::from(addr), len: 32 }
    }

    pub fn addr(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr)
    }
    /// The CIDR prefix length (`/len`). A prefix is never "empty", so no
    /// `is_empty` counterpart exists.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }
    pub fn addr_u32(&self) -> u32 {
        self.addr
    }

    /// Number of addresses covered (saturating at `u32::MAX` for /0 would
    /// overflow `u32`, so the count is returned as `u64`).
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len)
    }

    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        (u32::from(ip) & mask(self.len)) == self.addr
    }

    pub fn contains_net(&self, other: Ipv4Net) -> bool {
        other.len >= self.len && (other.addr & mask(self.len)) == self.addr
    }

    /// The first address of the prefix.
    pub fn first(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr)
    }

    /// The last address of the prefix.
    pub fn last(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr | !mask(self.len))
    }

    /// Split into the two child prefixes of length `len + 1`.
    /// Panics on a /32.
    pub fn children(&self) -> (Ipv4Net, Ipv4Net) {
        assert!(self.len < 32, "cannot split a host route");
        let l = self.len + 1;
        let left = Ipv4Net { addr: self.addr, len: l };
        let right = Ipv4Net { addr: self.addr | (1 << (32 - l)), len: l };
        (left, right)
    }

    /// Enumerate the /24 sub-prefixes. Panics if `len > 24`.
    pub fn slash24s(&self) -> impl Iterator<Item = Slash24> + '_ {
        assert!(self.len <= 24, "prefix {self} is finer than a /24");
        let count = 1u32 << (24 - self.len);
        (0..count).map(move |i| Slash24((self.addr >> 8) + i))
    }
}

impl fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr(), self.len)
    }
}
impl fmt::Debug for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Errors parsing an [`Ipv4Net`] from `a.b.c.d/len` notation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseNetError {
    MissingSlash,
    BadAddr,
    BadLen,
}

impl fmt::Display for ParseNetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseNetError::MissingSlash => write!(f, "missing '/' in prefix"),
            ParseNetError::BadAddr => write!(f, "invalid IPv4 address"),
            ParseNetError::BadLen => write!(f, "invalid prefix length"),
        }
    }
}
impl std::error::Error for ParseNetError {}

impl FromStr for Ipv4Net {
    type Err = ParseNetError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (a, l) = s.split_once('/').ok_or(ParseNetError::MissingSlash)?;
        let addr: Ipv4Addr = a.parse().map_err(|_| ParseNetError::BadAddr)?;
        let len: u8 = l.parse().map_err(|_| ParseNetError::BadLen)?;
        if len > 32 {
            return Err(ParseNetError::BadLen);
        }
        Ok(Ipv4Net::new(addr, len))
    }
}

fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

/// A /24 prefix identified by its upper 24 bits. This is the paper's unit
/// for "same network infrastructure" (shared L2/upstream) and the anycast
/// census join key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slash24(pub u32);

impl Slash24 {
    pub fn of(ip: Ipv4Addr) -> Slash24 {
        Slash24(u32::from(ip) >> 8)
    }
    pub fn net(&self) -> Ipv4Net {
        Ipv4Net { addr: self.0 << 8, len: 24 }
    }
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        u32::from(ip) >> 8 == self.0
    }
    /// The /16 this /24 sits inside.
    pub fn slash16(&self) -> Slash16 {
        Slash16(self.0 >> 8)
    }
}

impl fmt::Display for Slash24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.net())
    }
}
impl fmt::Debug for Slash24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A /16 prefix identified by its upper 16 bits. The RSDoS feed counts how
/// many telescope /16s receive backscatter from a victim.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slash16(pub u32);

impl Slash16 {
    pub fn of(ip: Ipv4Addr) -> Slash16 {
        Slash16(u32::from(ip) >> 16)
    }
    pub fn net(&self) -> Ipv4Net {
        Ipv4Net { addr: self.0 << 16, len: 16 }
    }
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        u32::from(ip) >> 16 == self.0
    }
}

impl fmt::Display for Slash16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.net())
    }
}
impl fmt::Debug for Slash16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalizes_host_bits() {
        let n = Ipv4Net::new(ip("192.168.13.57"), 16);
        assert_eq!(n.addr(), ip("192.168.0.0"));
        assert_eq!(format!("{n}"), "192.168.0.0/16");
    }

    #[test]
    fn contains_bounds() {
        let n: Ipv4Net = "10.20.0.0/15".parse().unwrap();
        assert!(n.contains(ip("10.20.0.0")));
        assert!(n.contains(ip("10.21.255.255")));
        assert!(!n.contains(ip("10.22.0.0")));
        assert!(!n.contains(ip("10.19.255.255")));
        assert_eq!(n.first(), ip("10.20.0.0"));
        assert_eq!(n.last(), ip("10.21.255.255"));
        assert_eq!(n.size(), 1 << 17);
    }

    #[test]
    fn slash_zero_contains_everything() {
        assert!(Ipv4Net::ALL.contains(ip("0.0.0.0")));
        assert!(Ipv4Net::ALL.contains(ip("255.255.255.255")));
        assert_eq!(Ipv4Net::ALL.size(), 1u64 << 32);
    }

    #[test]
    fn host_route() {
        let h = Ipv4Net::host(ip("1.2.3.4"));
        assert_eq!(h.len(), 32);
        assert!(h.contains(ip("1.2.3.4")));
        assert!(!h.contains(ip("1.2.3.5")));
        assert_eq!(h.size(), 1);
    }

    #[test]
    fn children_split() {
        let n: Ipv4Net = "128.0.0.0/9".parse().unwrap();
        let (l, r) = n.children();
        assert_eq!(format!("{l}"), "128.0.0.0/10");
        assert_eq!(format!("{r}"), "128.64.0.0/10");
        assert!(n.contains_net(l) && n.contains_net(r));
        assert!(!l.contains_net(n));
    }

    #[test]
    fn contains_net_relations() {
        let a: Ipv4Net = "10.0.0.0/8".parse().unwrap();
        let b: Ipv4Net = "10.5.0.0/16".parse().unwrap();
        assert!(a.contains_net(b));
        assert!(!b.contains_net(a));
        assert!(a.contains_net(a));
    }

    #[test]
    fn parse_errors() {
        assert_eq!("10.0.0.0".parse::<Ipv4Net>(), Err(ParseNetError::MissingSlash));
        assert_eq!("10.0.0/8".parse::<Ipv4Net>(), Err(ParseNetError::BadAddr));
        assert_eq!("10.0.0.0/33".parse::<Ipv4Net>(), Err(ParseNetError::BadLen));
        assert_eq!("10.0.0.0/x".parse::<Ipv4Net>(), Err(ParseNetError::BadLen));
    }

    #[test]
    fn slash24_of() {
        let s = Slash24::of(ip("203.0.113.77"));
        assert_eq!(format!("{s}"), "203.0.113.0/24");
        assert!(s.contains(ip("203.0.113.0")));
        assert!(!s.contains(ip("203.0.114.0")));
        assert_eq!(s.slash16(), Slash16::of(ip("203.0.200.1")));
    }

    #[test]
    fn slash16_of() {
        let s = Slash16::of(ip("198.51.100.1"));
        assert_eq!(format!("{s}"), "198.51.0.0/16");
        assert!(s.contains(ip("198.51.255.255")));
        assert!(!s.contains(ip("198.52.0.0")));
    }

    #[test]
    fn slash24_enumeration() {
        let n: Ipv4Net = "10.1.0.0/22".parse().unwrap();
        let subs: Vec<Slash24> = n.slash24s().collect();
        assert_eq!(subs.len(), 4);
        assert_eq!(format!("{}", subs[0]), "10.1.0.0/24");
        assert_eq!(format!("{}", subs[3]), "10.1.3.0/24");
    }
}
