//! Exactness pin for §III-B profile classification.
//!
//! The select stage sorts every crawled profile into well-defined, vague,
//! insufficient or ambiguous, and every figure downstream depends on that
//! verdict. This test fixes the verdicts over a generated corpus's distinct
//! profile texts, plus one-edit typos that exercise the fuzzy district pass,
//! to a recorded fingerprint: a faster matcher that changes any verdict
//! fails here.

mod common;

use std::collections::BTreeSet;

use common::Fnv;
use stir::geokr::Gazetteer;
use stir::textgeo::ProfileClassifier;
use stir::twitter_sim::datasets::{Dataset, DatasetSpec};

/// Every one-edit variant class the fuzzy pass must treat like the DP did:
/// a deletion, a substitution, an adjacent transposition and an insertion,
/// at the front, the middle and the end of the name.
fn typos(name: &str) -> Vec<String> {
    let b = name.as_bytes();
    let n = b.len();
    let mut out = Vec::new();
    for i in [0, n / 2, n - 1] {
        let mut del = b.to_vec();
        del.remove(i);
        let mut sub = b.to_vec();
        sub[i] = if sub[i] == b'x' { b'q' } else { b'x' };
        let mut ins = b.to_vec();
        ins.insert(i, b'a');
        out.extend([del, sub, ins]);
        if i + 1 < n {
            let mut swap = b.to_vec();
            swap.swap(i, i + 1);
            out.push(swap);
        }
    }
    out.into_iter()
        .map(|v| String::from_utf8(v).expect("district names are ASCII"))
        .collect()
}

/// Recorded while the fuzzy pass still ran the bounded edit-distance DP.
#[test]
fn classification_fingerprint_is_pinned() {
    let g = Gazetteer::load();
    let dataset = Dataset::generate(DatasetSpec::korean_paper().scaled(0.05), &g, 2012);
    let mut texts: BTreeSet<String> = dataset
        .users
        .iter()
        .map(|u| u.location_text.clone())
        .collect();
    for d in g.districts().iter().step_by(11).take(20) {
        for typo in typos(d.name_en) {
            texts.insert(format!("{} {typo}", d.province));
            texts.insert(typo);
        }
    }
    let classifier = ProfileClassifier::new(&g);
    let mut h = Fnv::new();
    for text in &texts {
        h.str(text);
        h.str(&format!("{:?}", classifier.classify(text)));
    }
    assert_eq!(texts.len(), 1_232);
    assert_eq!(h.0, 10_051_822_876_015_761_171);
}
