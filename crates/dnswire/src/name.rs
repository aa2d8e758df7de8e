//! Domain names: validation and textual form.

use crate::WireError;
use std::fmt;
use std::str::FromStr;

/// Maximum octets of a single label.
const MAX_LABEL: usize = 63;
/// Maximum octets of a whole encoded name (including length bytes and root).
const MAX_NAME: usize = 255;

/// A fully-qualified domain name, stored as lowercase labels (DNS names are
/// case-insensitive; OpenINTEL normalizes to lowercase before joining).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name {
    labels: Vec<Vec<u8>>,
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Name {
        Name { labels: Vec::new() }
    }

    /// Build from label byte-strings. Validates label and name lengths.
    pub fn from_labels<I, L>(labels: I) -> Result<Name, WireError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut out: Vec<Vec<u8>> = Vec::new();
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() || l.len() > MAX_LABEL {
                return Err(WireError::BadLabel);
            }
            out.push(l.to_ascii_lowercase());
        }
        let name = Name { labels: out };
        if name.encoded_len() > MAX_NAME {
            return Err(WireError::NameTooLong);
        }
        Ok(name)
    }

    /// Length of the uncompressed wire encoding (length bytes + labels +
    /// terminating root byte), the quantity RFC 1035 caps at 255.
    fn encoded_len(&self) -> usize {
        self.labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1
    }
}

impl FromStr for Name {
    type Err = WireError;

    /// Parse dotted notation. A trailing dot is accepted; `.` is the root.
    fn from_str(s: &str) -> Result<Name, WireError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        Name::from_labels(s.split('.'))
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return write!(f, ".");
        }
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            for &b in l {
                if b.is_ascii_graphic() && b != b'.' && b != b'\\' {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\{:03}", b)?;
                }
            }
        }
        Ok(())
    }
}
impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("Example.COM").to_string(), "example.com");
        assert_eq!(n("example.com.").to_string(), "example.com");
        assert_eq!(n(".").to_string(), ".");
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(n("mil.ru").encoded_len(), 8);
    }

    #[test]
    fn label_limits() {
        let long = "a".repeat(63);
        assert!(Name::from_labels([long.as_bytes()]).is_ok());
        let too_long = "a".repeat(64);
        assert_eq!(Name::from_labels([too_long.as_bytes()]).unwrap_err(), WireError::BadLabel);
        assert_eq!(Name::from_labels(["".as_bytes()]).unwrap_err(), WireError::BadLabel);
        assert_eq!("a..b".parse::<Name>().unwrap_err(), WireError::BadLabel);
    }

    #[test]
    fn name_length_limit() {
        // Four 63-byte labels: 4*64 + 1 = 257 > 255.
        let l = "a".repeat(63);
        let labels = vec![l.clone(), l.clone(), l.clone(), l];
        assert_eq!(Name::from_labels(&labels).unwrap_err(), WireError::NameTooLong);
    }

    #[test]
    fn non_ascii_labels_escape_in_display() {
        let name = Name::from_labels([&[0xFFu8, b'a'][..]]).unwrap();
        assert_eq!(name.to_string(), "\\255a");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_name() -> impl Strategy<Value = Name> {
        prop::collection::vec("[a-z0-9-]{1,20}", 0..6)
            .prop_map(|ls| Name::from_labels(ls.iter().map(|s| s.as_bytes())).unwrap())
    }

    proptest! {
        #[test]
        fn display_parse_roundtrip(name in arb_name()) {
            let s = name.to_string();
            let back: Name = s.parse().unwrap();
            prop_assert_eq!(back, name);
        }
    }
}
