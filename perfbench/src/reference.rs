//! Reference fingerprints: the per-run digests a correct program
//! reproduces, captured once and committed under `reference/`.
//!
//! Each workload has [`INPUT_SETS`] input sets; `--seed n` selects set
//! `n % INPUT_SETS`, so every seed has a reference. A file holds one line
//! per set: the set number, then one 8-hex-digit [`crate::stats::digest`]
//! per run of the set's batch, in batch order.

use std::collections::BTreeMap;

/// Input sets per workload with a committed reference.
pub const INPUT_SETS: u64 = 16;

/// The digests of one workload, keyed by input set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reference {
    sets: BTreeMap<u64, Vec<u32>>,
}

impl Reference {
    /// Parses a reference file; `#` lines are comments.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut sets = BTreeMap::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &str| format!("reference line {}: {what}", lineno + 1);
            let mut words = line.split_ascii_whitespace();
            let set: u64 = words
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| err("bad set number"))?;
            let digests = words
                .map(|w| u32::from_str_radix(w, 16).map_err(|_| err("bad digest")))
                .collect::<Result<Vec<u32>, String>>()?;
            sets.insert(set, digests);
        }
        Ok(Reference { sets })
    }

    /// Renders the file [`Reference::parse`] reads.
    pub fn render(&self, header: &str) -> String {
        let mut out = format!("# {header}\n");
        for (set, digests) in &self.sets {
            out.push_str(&set.to_string());
            for d in digests {
                out.push_str(&format!(" {d:08x}"));
            }
            out.push('\n');
        }
        out
    }

    pub fn insert(&mut self, set: u64, digests: Vec<u32>) {
        self.sets.insert(set, digests);
    }

    /// The digests of input set `set`.
    pub fn set(&self, set: u64) -> Option<&[u32]> {
        self.sets.get(&set).map(Vec::as_slice)
    }
}

/// Checks one workload's runs against the reference of its input set.
pub struct Checker<'a> {
    digests: &'a [u32],
}

impl<'a> Checker<'a> {
    pub fn new(reference: &'a Reference, set: u64) -> Result<Self, String> {
        let digests = reference
            .set(set)
            .ok_or_else(|| format!("no reference for input set {set}"))?;
        Ok(Checker { digests })
    }

    /// Does run `index` of the batch reproduce its reference fingerprint?
    pub fn matches(&self, index: usize, fingerprint: &str) -> bool {
        self.digests.get(index) == Some(&crate::stats::digest(fingerprint))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::digest;

    #[test]
    fn render_parse_roundtrip() {
        let mut r = Reference::default();
        r.insert(0, vec![0, 0xdead_beef]);
        r.insert(3, vec![7]);
        let back = Reference::parse(&r.render("test")).unwrap();
        assert_eq!(back, r);
        assert!(Reference::parse("0 xyz\n").is_err());
        assert!(Reference::parse("a 00000000\n").is_err());
    }

    #[test]
    fn a_run_off_the_reference_fails() {
        let mut r = Reference::default();
        r.insert(1, vec![digest("run-a"), digest("run-b")]);
        let c = Checker::new(&r, 1).unwrap();
        assert!(c.matches(0, "run-a"));
        assert!(!c.matches(0, "run-b"), "runs are matched by index");
        assert!(!c.matches(2, "run-a"), "past the reference nothing matches");
        assert!(Checker::new(&r, 2).is_err());
    }
}
