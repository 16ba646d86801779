//! One labeled verification problem: topology, turn relation (and the
//! partition-sequence design it came from, when there is one), the proven
//! expected verdict, provenance, and a canonical content hash.

use ebda_core::{canonical, Channel, Partition, PartitionSeq, Turn, TurnSet};
use ebda_obs::json::{self, Value};
use ebda_oracle::artifact::{Artifact, ArtifactKind};
use std::fmt;

/// On-disk format version; entries with any other version are rejected.
pub const FORMAT_VERSION: u64 = 1;

/// The ground-truth label of a corpus entry, proven at generation time by
/// the brute-force searcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectedVerdict {
    /// The design/relation is deadlock-free on the entry's topology.
    DeadlockFree,
    /// The design/relation deadlocks on the entry's topology.
    Deadlocking,
}

impl ExpectedVerdict {
    /// `true` for [`ExpectedVerdict::DeadlockFree`].
    pub fn is_free(self) -> bool {
        matches!(self, ExpectedVerdict::DeadlockFree)
    }

    /// Parses the on-disk name.
    pub fn parse(s: &str) -> Option<ExpectedVerdict> {
        match s {
            "deadlock-free" => Some(ExpectedVerdict::DeadlockFree),
            "deadlocking" => Some(ExpectedVerdict::Deadlocking),
            _ => None,
        }
    }
}

impl ExpectedVerdict {
    /// The stable on-disk name.
    pub fn name(self) -> &'static str {
        match self {
            ExpectedVerdict::DeadlockFree => "deadlock-free",
            ExpectedVerdict::Deadlocking => "deadlocking",
        }
    }
}

impl fmt::Display for ExpectedVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One labeled corpus entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// Human-readable entry name (`<family>-<index>`, or `witness-…` for
    /// archived counterexamples).
    pub name: String,
    /// Generator-family slug (see [`crate::families`]).
    pub family: String,
    /// Per-dimension radices of the topology.
    pub radix: Vec<usize>,
    /// Per-dimension wrap flags (`true` = torus dimension).
    pub wrap: Vec<bool>,
    /// Per-dimension virtual-channel budget.
    pub vcs: Vec<u8>,
    /// The channel-class universe.
    pub universe: Vec<Channel>,
    /// The allowed turns over `universe`.
    pub turns: TurnSet,
    /// The partition-sequence design the relation came from, if any.
    pub design: Option<PartitionSeq>,
    /// The proven ground-truth verdict.
    pub expected: ExpectedVerdict,
    /// Whether EbDa's constructive check is expected to *accept* the
    /// design (meaningful only when `design` is present). Deadlocking
    /// torus entries can be EbDa-certified: the constructive guarantee is
    /// mesh-only, so acceptance plus a wrap-link deadlock is consistent.
    pub ebda_certified: bool,
    /// How the entry was produced and how its label was proven.
    pub provenance: String,
}

impl CorpusEntry {
    /// The canonical content hash of the (topology, turn-set) pair —
    /// independent of channel/turn enumeration order. This is the same
    /// hash a persistent verdict cache keys on.
    pub fn content_hash(&self) -> u64 {
        canonical::canonical_hash(
            &self.radix,
            &self.wrap,
            &self.vcs,
            &self.universe,
            &self.turns,
        )
    }

    /// The content hash in the fixed-width hex used for file names.
    pub fn hash_hex(&self) -> String {
        canonical::hash_hex(self.content_hash())
    }

    /// The content-addressed file name of this entry (`<hash>.json`).
    pub fn file_name(&self) -> String {
        format!("{}.json", self.hash_hex())
    }

    /// Converts the entry into an oracle [`Artifact`] so the existing
    /// evaluation, shrinking and replay machinery applies unchanged.
    pub fn to_artifact(&self, id: u64) -> Artifact {
        Artifact {
            id,
            kind: if self.design.is_some() {
                ArtifactKind::Partitioning
            } else {
                ArtifactKind::RandomTurns
            },
            radix: self.radix.clone(),
            wrap: self.wrap.clone(),
            vcs: self.vcs.clone(),
            universe: self.universe.clone(),
            turns: self.turns.clone(),
            design: self.design.clone(),
        }
    }

    /// Serializes the entry as the versioned on-disk JSON document. Keys
    /// are written in a fixed order and the rendering has no wall-clock
    /// or environment dependence, so the bytes are stable.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"format\": {FORMAT_VERSION},\n"));
        out.push_str(&format!(
            "  \"hash\": {},\n",
            json::escape(&self.hash_hex())
        ));
        out.push_str(&format!("  \"name\": {},\n", json::escape(&self.name)));
        out.push_str(&format!("  \"family\": {},\n", json::escape(&self.family)));
        out.push_str(&format!(
            "  \"radix\": [{}],\n",
            join(self.radix.iter().map(|r| r.to_string()))
        ));
        out.push_str(&format!(
            "  \"wrap\": [{}],\n",
            join(self.wrap.iter().map(|w| w.to_string()))
        ));
        out.push_str(&format!(
            "  \"vcs\": [{}],\n",
            join(self.vcs.iter().map(|v| v.to_string()))
        ));
        out.push_str(&format!(
            "  \"universe\": [{}],\n",
            join(self.universe.iter().map(|c| json::escape(&c.to_string())))
        ));
        out.push_str(&format!(
            "  \"turns\": [{}],\n",
            join(
                self.turns
                    .iter()
                    .map(|t| json::escape(&format!("{}>{}", t.from, t.to)))
            )
        ));
        match &self.design {
            Some(seq) => {
                let parts: Vec<String> = seq
                    .partitions()
                    .iter()
                    .map(|p| format!("[{}]", join(p.iter().map(|c| json::escape(&c.to_string())))))
                    .collect();
                out.push_str(&format!("  \"design\": [{}],\n", parts.join(", ")));
            }
            None => out.push_str("  \"design\": null,\n"),
        }
        out.push_str(&format!(
            "  \"expected\": {},\n",
            json::escape(self.expected.name())
        ));
        out.push_str(&format!("  \"ebda_certified\": {},\n", self.ebda_certified));
        out.push_str(&format!(
            "  \"provenance\": {}\n",
            json::escape(&self.provenance)
        ));
        out.push_str("}\n");
        out
    }

    /// Parses the on-disk JSON document, verifying the format version and
    /// that the embedded hash matches the recomputed canonical hash (a
    /// tampered or hand-mangled entry is rejected loudly).
    pub fn from_json(text: &str) -> Result<CorpusEntry, String> {
        let v = Value::parse(text).map_err(|e| format!("corpus entry: bad JSON: {e}"))?;
        let format = v
            .get("format")
            .and_then(Value::as_u64)
            .ok_or("corpus entry: missing \"format\"")?;
        if format != FORMAT_VERSION {
            return Err(format!(
                "corpus entry: format v{format} not supported (this build reads v{FORMAT_VERSION})"
            ));
        }
        let str_field = |key: &str| -> Result<String, String> {
            Ok(v.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("corpus entry: missing \"{key}\""))?
                .to_string())
        };
        let name = str_field("name")?;
        let family = str_field("family")?;
        let radix: Vec<usize> = num_array(&v, "radix")?;
        let wrap: Vec<bool> = v
            .get("wrap")
            .and_then(Value::as_arr)
            .ok_or("corpus entry: missing \"wrap\"")?
            .iter()
            .map(|x| match x {
                Value::Bool(b) => Ok(*b),
                _ => Err("corpus entry: non-boolean wrap flag".to_string()),
            })
            .collect::<Result<_, _>>()?;
        let vcs: Vec<u8> = num_array(&v, "vcs")?;
        let universe: Vec<Channel> = str_array(&v, "universe")?
            .iter()
            .map(|s| Channel::parse(s).map_err(|e| format!("corpus entry: channel {s:?}: {e}")))
            .collect::<Result<_, _>>()?;
        let turns: TurnSet = str_array(&v, "turns")?
            .iter()
            .map(|s| parse_turn(s))
            .collect::<Result<Vec<Turn>, String>>()?
            .into_iter()
            .collect();
        let design = match v.get("design") {
            None | Some(Value::Null) => None,
            Some(Value::Arr(parts)) => {
                let mut partitions = Vec::new();
                for p in parts {
                    let channels: Vec<Channel> = p
                        .as_arr()
                        .ok_or("corpus entry: design partition must be an array")?
                        .iter()
                        .map(|c| {
                            let s = c
                                .as_str()
                                .ok_or("corpus entry: non-string design channel")?;
                            Channel::parse(s)
                                .map_err(|e| format!("corpus entry: design channel {s:?}: {e}"))
                        })
                        .collect::<Result<_, String>>()?;
                    partitions.push(
                        Partition::from_channels(channels)
                            .map_err(|e| format!("corpus entry: bad design partition: {e}"))?,
                    );
                }
                Some(PartitionSeq::from_partitions(partitions))
            }
            Some(_) => return Err("corpus entry: \"design\" must be an array or null".into()),
        };
        let expected = ExpectedVerdict::parse(&str_field("expected")?)
            .ok_or("corpus entry: bad \"expected\" verdict")?;
        let ebda_certified = match v.get("ebda_certified") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("corpus entry: missing \"ebda_certified\"".into()),
        };
        let provenance = str_field("provenance")?;
        let entry = CorpusEntry {
            name,
            family,
            radix,
            wrap,
            vcs,
            universe,
            turns,
            design,
            expected,
            ebda_certified,
            provenance,
        };
        let declared = str_field("hash")?;
        let actual = entry.hash_hex();
        if declared != actual {
            return Err(format!(
                "corpus entry {}: declared hash {declared} but content hashes to {actual}",
                entry.name
            ));
        }
        Ok(entry)
    }

    /// A compact one-line description for logs and reports.
    pub fn summary(&self) -> String {
        let shape: Vec<String> = self
            .radix
            .iter()
            .zip(&self.wrap)
            .map(|(r, w)| format!("{r}{}", if *w { "t" } else { "" }))
            .collect();
        format!(
            "{} [{}] on {} (vcs {:?}, {} classes, {} turns) expecting {}",
            self.name,
            self.family,
            shape.join("x"),
            self.vcs,
            self.universe.len(),
            self.turns.len(),
            self.expected,
        )
    }
}

fn join(items: impl IntoIterator<Item = String>) -> String {
    items.into_iter().collect::<Vec<_>>().join(", ")
}

fn num_array<T: TryFrom<u64>>(v: &Value, key: &str) -> Result<Vec<T>, String> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("corpus entry: missing \"{key}\""))?
        .iter()
        .map(|x| {
            x.as_u64()
                .and_then(|n| T::try_from(n).ok())
                .ok_or_else(|| format!("corpus entry: bad number in \"{key}\""))
        })
        .collect()
}

fn str_array<'a>(v: &'a Value, key: &str) -> Result<Vec<&'a str>, String> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("corpus entry: missing \"{key}\""))?
        .iter()
        .map(|x| {
            x.as_str()
                .ok_or_else(|| format!("corpus entry: non-string item in \"{key}\""))
        })
        .collect()
}

/// Parses the `from>to` turn rendering (the same notation `ebda certify
/// --turns` accepts).
fn parse_turn(s: &str) -> Result<Turn, String> {
    let (from, to) = s
        .split_once('>')
        .ok_or_else(|| format!("corpus entry: turn {s:?} needs a '>'"))?;
    let from = Channel::parse(from.trim()).map_err(|e| format!("corpus entry: turn {s:?}: {e}"))?;
    let to = Channel::parse(to.trim()).map_err(|e| format!("corpus entry: turn {s:?}: {e}"))?;
    Turn::try_new(from, to).map_err(|e| format!("corpus entry: turn {s:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebda_core::catalog;
    use ebda_core::extract_turns;

    fn sample() -> CorpusEntry {
        let seq = catalog::dateline_design(&[4, 4], &[true, false]);
        let universe = seq.channels();
        let vcs = ebda_cdg::dally::infer_vcs(&universe, 2);
        let turns = extract_turns(&seq).unwrap().into_turn_set();
        CorpusEntry {
            name: "torus-dateline-00".into(),
            family: "torus-dateline".into(),
            radix: vec![4, 4],
            wrap: vec![true, false],
            vcs,
            universe,
            turns,
            design: Some(seq),
            expected: ExpectedVerdict::DeadlockFree,
            ebda_certified: true,
            provenance: "catalog::dateline_design([4,4],[t,f]); label proven by brute force".into(),
        }
    }

    #[test]
    fn json_round_trips() {
        let entry = sample();
        let text = entry.to_json();
        let back = CorpusEntry::from_json(&text).unwrap();
        assert_eq!(back, entry);
        // And serialization is idempotent byte-for-byte.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn tampered_hash_is_rejected() {
        let entry = sample();
        let text = entry
            .to_json()
            .replace(&entry.hash_hex(), "deadbeefdeadbeef");
        let err = CorpusEntry::from_json(&text).unwrap_err();
        assert!(err.contains("content hashes to"), "{err}");
    }

    #[test]
    fn wrong_format_version_is_rejected() {
        let text = sample()
            .to_json()
            .replace("\"format\": 1", "\"format\": 99");
        let err = CorpusEntry::from_json(&text).unwrap_err();
        assert!(err.contains("format v99"), "{err}");
    }

    #[test]
    fn artifact_conversion_preserves_the_problem() {
        let entry = sample();
        let a = entry.to_artifact(3);
        assert_eq!(a.id, 3);
        assert_eq!(a.radix, entry.radix);
        assert_eq!(a.turns, entry.turns);
        assert!(a.design.is_some());
        assert_eq!(a.topology().node_count(), 16);
    }

    #[test]
    fn verdict_names_round_trip() {
        for v in [ExpectedVerdict::DeadlockFree, ExpectedVerdict::Deadlocking] {
            assert_eq!(ExpectedVerdict::parse(v.name()), Some(v));
        }
        assert_eq!(ExpectedVerdict::parse("maybe"), None);
    }
}
