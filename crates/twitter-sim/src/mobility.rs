//! Per-user mobility models: the districts a user actually tweets from.

use rand::Rng;
use stir_geokr::{DistrictId, Gazetteer};

use crate::archetype::Archetype;

/// A categorical distribution over the districts a user visits.
///
/// `spots` holds `(district, weight)` pairs with weights summing to 1,
/// ordered by descending weight. The *profile* district may or may not be
/// among them — that gap is exactly what the paper measures.
#[derive(Clone, Debug)]
pub struct MobilityModel {
    spots: Vec<(DistrictId, f64)>,
    cumulative: Vec<f64>,
}

impl MobilityModel {
    /// Builds a model from raw `(district, weight)` pairs.
    ///
    /// # Panics
    /// Panics if `spots` is empty or total weight is not positive.
    pub fn from_spots(mut spots: Vec<(DistrictId, f64)>) -> Self {
        assert!(!spots.is_empty(), "mobility model needs at least one spot");
        let total: f64 = spots.iter().map(|s| s.1).sum();
        assert!(total > 0.0, "mobility weights must be positive");
        for s in &mut spots {
            s.1 /= total;
        }
        spots.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let mut acc = 0.0;
        let cumulative = spots
            .iter()
            .map(|s| {
                acc += s.1;
                acc
            })
            .collect();
        MobilityModel { spots, cumulative }
    }

    /// Builds the model for a user of the given archetype whose *profile*
    /// names `profile_district`.
    ///
    /// Secondary spots are drawn from the districts nearest the anchor
    /// (urban mobility is local), with an occasional far-away district for
    /// travel. For [`Archetype::Commuter`] the spots orbit the profile
    /// district but exclude it; for [`Archetype::Relocated`] they orbit a
    /// random distant district.
    pub fn build<R: Rng>(
        archetype: Archetype,
        profile_district: DistrictId,
        gazetteer: &Gazetteer,
        rng: &mut R,
    ) -> Self {
        let home = profile_district;
        match archetype {
            Archetype::HomeBody => {
                let n = rng.gen_range(1..=4);
                let mut spots = vec![(home, 0.55)];
                spots.extend(zipf_spots(gazetteer, home, n, 0.45, true, rng));
                MobilityModel::from_spots(spots)
            }
            Archetype::DualCenter => {
                let second = pick_nearby(gazetteer, home, rng, &[home]);
                let n = rng.gen_range(1..=4);
                // Residual mass (0.28) stays below home's weight even when a
                // single extra spot absorbs all of it, so home ranks second.
                let mut spots = vec![(second, 0.42), (home, 0.30)];
                spots.extend(zipf_spots_excluding(
                    gazetteer,
                    home,
                    n,
                    0.28,
                    &[home, second],
                    rng,
                ));
                MobilityModel::from_spots(spots)
            }
            Archetype::TertiaryHome => {
                let a = pick_nearby(gazetteer, home, rng, &[home]);
                let b = pick_nearby(gazetteer, home, rng, &[home, a]);
                let n = rng.gen_range(2..=5);
                let mut spots = vec![(a, 0.32), (b, 0.24), (home, 0.14)];
                spots.extend(zipf_spots_excluding(
                    gazetteer,
                    home,
                    n,
                    0.30,
                    &[home, a, b],
                    rng,
                ));
                MobilityModel::from_spots(spots)
            }
            Archetype::Wanderer => {
                let n = rng.gen_range(6..=10);
                let mut spots = vec![(home, 0.07)];
                // Near-flat weights with jitter; wanderers roam widely, so
                // half the spots are drawn from anywhere in the country.
                let mut chosen = vec![home];
                for _ in 0..n {
                    let d = if rng.gen_bool(0.5) {
                        pick_nearby(gazetteer, home, rng, &chosen)
                    } else {
                        pick_anywhere(gazetteer, rng, &chosen)
                    };
                    chosen.push(d);
                    let w = (0.93 / n as f64) * rng.gen_range(0.6..1.4);
                    spots.push((d, w));
                }
                MobilityModel::from_spots(spots)
            }
            Archetype::Commuter => {
                let work = pick_nearby(gazetteer, home, rng, &[home]);
                let mut spots = vec![(work, 0.70)];
                let mut taken = vec![home, work];
                if rng.gen_bool(0.8) {
                    let hangout = pick_nearby(gazetteer, home, rng, &taken);
                    taken.push(hangout);
                    spots.push((hangout, 0.22));
                }
                if rng.gen_bool(0.4) {
                    let extra = pick_anywhere(gazetteer, rng, &taken);
                    spots.push((extra, 0.08));
                }
                MobilityModel::from_spots(spots)
            }
            Archetype::Relocated => {
                let new_home = pick_anywhere(gazetteer, rng, &[home]);
                let n = rng.gen_range(0..=2);
                let mut spots = vec![(new_home, 0.7)];
                spots.extend(zipf_spots_excluding(
                    gazetteer,
                    new_home,
                    n,
                    0.3,
                    &[home, new_home],
                    rng,
                ));
                MobilityModel::from_spots(spots)
            }
        }
    }

    /// The `(district, weight)` pairs, heaviest first.
    pub fn spots(&self) -> &[(DistrictId, f64)] {
        &self.spots
    }

    /// The probability mass on `district` (0 when not a spot).
    pub fn weight_of(&self, district: DistrictId) -> f64 {
        self.spots
            .iter()
            .find(|s| s.0 == district)
            .map_or(0.0, |s| s.1)
    }

    /// Samples the district for one tweet.
    pub fn sample_district<R: Rng>(&self, rng: &mut R) -> DistrictId {
        let u = rng.gen::<f64>();
        let idx = self.cumulative.partition_point(|&c| c <= u);
        self.spots[idx.min(self.spots.len() - 1)].0
    }
}

/// Draws `n` nearby spots with Zipf-decaying weights totalling `mass`.
fn zipf_spots<R: Rng>(
    gazetteer: &Gazetteer,
    anchor: DistrictId,
    n: usize,
    mass: f64,
    exclude_anchor: bool,
    rng: &mut R,
) -> Vec<(DistrictId, f64)> {
    let exclude = if exclude_anchor { vec![anchor] } else { vec![] };
    zipf_spots_excluding(gazetteer, anchor, n, mass, &exclude, rng)
}

fn zipf_spots_excluding<R: Rng>(
    gazetteer: &Gazetteer,
    anchor: DistrictId,
    n: usize,
    mass: f64,
    exclude: &[DistrictId],
    rng: &mut R,
) -> Vec<(DistrictId, f64)> {
    let mut chosen: Vec<DistrictId> = exclude.to_vec();
    let mut out = Vec::with_capacity(n);
    let norm: f64 = (1..=n.max(1)).map(|i| 1.0 / (i as f64).powf(1.15)).sum();
    for i in 1..=n {
        let d = if rng.gen_bool(0.85) {
            pick_nearby(gazetteer, anchor, rng, &chosen)
        } else {
            pick_anywhere(gazetteer, rng, &chosen)
        };
        chosen.push(d);
        let w = mass * (1.0 / (i as f64).powf(1.15)) / norm;
        out.push((d, w));
    }
    out
}

/// A district near `anchor` not in `exclude` (falls back to any district).
fn pick_nearby<R: Rng>(
    gazetteer: &Gazetteer,
    anchor: DistrictId,
    rng: &mut R,
    exclude: &[DistrictId],
) -> DistrictId {
    let ring = gazetteer.nearby_ring(anchor);
    for _ in 0..16 {
        let d = ring[rng.gen_range(0..ring.len())];
        if !exclude.contains(&d) {
            return d;
        }
    }
    pick_anywhere(gazetteer, rng, exclude)
}

/// Any district not in `exclude`, population-weighted.
fn pick_anywhere<R: Rng>(gazetteer: &Gazetteer, rng: &mut R, exclude: &[DistrictId]) -> DistrictId {
    for _ in 0..32 {
        let d = gazetteer.weighted_district(rng.gen::<f64>());
        if !exclude.contains(&d) {
            return d;
        }
    }
    // Exhausted retries (tiny gazetteer in tests): linear fallback.
    gazetteer
        .districts()
        .iter()
        .map(|d| d.id)
        .find(|id| !exclude.contains(id))
        .unwrap_or(exclude[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gaz() -> &'static Gazetteer {
        Box::leak(Box::new(Gazetteer::load()))
    }

    fn home(g: &Gazetteer) -> DistrictId {
        g.find_by_name_en("Yangcheon-gu")[0]
    }

    #[test]
    fn weights_normalized_and_sorted() {
        let g = gaz();
        let mut rng = StdRng::seed_from_u64(1);
        for arch in Archetype::ALL {
            let m = MobilityModel::build(arch, home(g), g, &mut rng);
            let total: f64 = m.spots().iter().map(|s| s.1).sum();
            assert!((total - 1.0).abs() < 1e-9, "{arch:?} total {total}");
            for w in m.spots().windows(2) {
                assert!(w[0].1 >= w[1].1, "{arch:?} not sorted");
            }
        }
    }

    #[test]
    fn homebody_home_is_top_spot() {
        let g = gaz();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let m = MobilityModel::build(Archetype::HomeBody, home(g), g, &mut rng);
            assert_eq!(m.spots()[0].0, home(g));
            assert!(m.spots()[0].1 > 0.5);
        }
    }

    #[test]
    fn dualcenter_home_is_second() {
        let g = gaz();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let m = MobilityModel::build(Archetype::DualCenter, home(g), g, &mut rng);
            assert_ne!(m.spots()[0].0, home(g));
            assert_eq!(m.spots()[1].0, home(g));
        }
    }

    #[test]
    fn never_home_archetypes_exclude_home() {
        let g = gaz();
        let mut rng = StdRng::seed_from_u64(4);
        for arch in [Archetype::Commuter, Archetype::Relocated] {
            for _ in 0..50 {
                let m = MobilityModel::build(arch, home(g), g, &mut rng);
                assert_eq!(m.weight_of(home(g)), 0.0, "{arch:?} visits home");
            }
        }
    }

    #[test]
    fn commuter_has_narrow_range() {
        let g = gaz();
        let mut rng = StdRng::seed_from_u64(5);
        let mut total_spots = 0usize;
        for _ in 0..100 {
            let m = MobilityModel::build(Archetype::Commuter, home(g), g, &mut rng);
            total_spots += m.spots().len();
        }
        let avg = total_spots as f64 / 100.0;
        assert!((1.5..3.5).contains(&avg), "commuter avg spots {avg}");
    }

    #[test]
    fn wanderer_has_wide_range() {
        let g = gaz();
        let mut rng = StdRng::seed_from_u64(6);
        let m = MobilityModel::build(Archetype::Wanderer, home(g), g, &mut rng);
        assert!(m.spots().len() >= 7, "wanderer spots {}", m.spots().len());
        assert!(m.weight_of(home(g)) > 0.0);
        assert!(m.weight_of(home(g)) < 0.15);
    }

    #[test]
    fn sampling_tracks_weights() {
        let g = gaz();
        let mut rng = StdRng::seed_from_u64(7);
        let m = MobilityModel::build(Archetype::HomeBody, home(g), g, &mut rng);
        let n = 20_000;
        let mut home_hits = 0;
        for _ in 0..n {
            if m.sample_district(&mut rng) == home(g) {
                home_hits += 1;
            }
        }
        let expected = m.weight_of(home(g));
        let got = home_hits as f64 / n as f64;
        assert!(
            (got - expected).abs() < 0.02,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn spots_are_distinct() {
        let g = gaz();
        let mut rng = StdRng::seed_from_u64(8);
        for arch in Archetype::ALL {
            for _ in 0..20 {
                let m = MobilityModel::build(arch, home(g), g, &mut rng);
                let mut ids: Vec<_> = m.spots().iter().map(|s| s.0).collect();
                ids.sort_unstable();
                let before = ids.len();
                ids.dedup();
                assert_eq!(ids.len(), before, "{arch:?} has duplicate spots");
            }
        }
    }
}
