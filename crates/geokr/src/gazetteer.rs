//! The in-memory gazetteer: district table, name indexes, centroid R-tree
//! and synthetic footprints.

use std::collections::HashMap;

use stir_geoindex::{BBox, Point, Polygon, RTree};

use crate::data;
use crate::district::{District, DistrictId, Province};

/// Length of every district's precomputed [`Gazetteer::nearby_ring`].
pub const NEARBY_RING_LEN: usize = 12;

/// Bounding box generously covering South Korea; points outside are rejected
/// by the reverse geocoder before any index lookup.
pub const KOREA_BBOX: BBox = BBox {
    min_lat: 32.5,
    min_lon: 124.0,
    max_lat: 39.5,
    max_lon: 132.0,
};

/// The gazetteer: every 2011-era district with lookup structures.
///
/// Build once with [`Gazetteer::load`] (cheap — a few hundred rows) and share
/// by reference; all methods take `&self`.
///
/// ```
/// use stir_geoindex::Point;
/// use stir_geokr::Gazetteer;
///
/// let gazetteer = Gazetteer::load();
/// assert_eq!(gazetteer.len(), 229);
/// let id = gazetteer.resolve_point(Point::new(37.517, 127.047)).unwrap();
/// assert_eq!(gazetteer.district(id).name_en, "Gangnam-gu");
/// ```
pub struct Gazetteer {
    districts: Vec<District>,
    footprints: Vec<Polygon>,
    /// lowercase romanized name (with suffix) → district ids
    by_name_en: HashMap<String, Vec<DistrictId>>,
    /// Korean name → district ids
    by_name_ko: HashMap<String, Vec<DistrictId>>,
    /// centroid index; item order == district id order
    centroid_tree: RTree<Point>,
    /// every district's `NEARBY_RING_LEN` nearest districts, flattened in
    /// id order
    rings: Vec<DistrictId>,
    /// cumulative population weights for weighted sampling
    cumulative_pop: Vec<f64>,
    total_pop: f64,
}

impl Gazetteer {
    /// Builds the gazetteer from the static 2011 table.
    pub fn load() -> Self {
        let mut districts = Vec::with_capacity(data::DISTRICTS.len());
        let mut footprints = Vec::with_capacity(data::DISTRICTS.len());
        let mut by_name_en: HashMap<String, Vec<DistrictId>> = HashMap::new();
        let mut by_name_ko: HashMap<String, Vec<DistrictId>> = HashMap::new();
        let mut cumulative_pop = Vec::with_capacity(data::DISTRICTS.len());
        let mut total_pop = 0.0;

        for (i, &(province, name_en, name_ko, kind, lat, lon, pop_k, area)) in
            data::DISTRICTS.iter().enumerate()
        {
            let id = DistrictId(i as u16);
            let centroid = Point::new(lat, lon);
            let d = District {
                id,
                name_en,
                name_ko,
                province,
                kind,
                centroid,
                population_k: pop_k,
                area_km2: area,
            };
            // A rounded polygon footprint with the district's area; vertex
            // count varies with the id so footprints are not all identical.
            let sides = 9 + (i % 7);
            let footprint = Polygon::regular(centroid, d.footprint_radius_km(), sides)
                .expect("regular polygon parameters are valid");
            by_name_en
                .entry(name_en.to_ascii_lowercase())
                .or_default()
                .push(id);
            by_name_ko.entry(name_ko.to_string()).or_default().push(id);
            total_pop += pop_k as f64;
            cumulative_pop.push(total_pop);
            districts.push(d);
            footprints.push(footprint);
        }

        let centroid_tree = RTree::bulk_load(districts.iter().map(|d| d.centroid).collect());
        let mut gazetteer = Gazetteer {
            districts,
            footprints,
            by_name_en,
            by_name_ko,
            centroid_tree,
            rings: Vec::new(),
            cumulative_pop,
            total_pop,
        };
        // The same kNN query `nearest_districts` answers, run once per
        // district here so ties break identically and callers get a slice.
        gazetteer.rings = gazetteer
            .districts
            .iter()
            .flat_map(|d| gazetteer.nearest_districts(d.centroid, NEARBY_RING_LEN))
            .collect();
        debug_assert_eq!(gazetteer.rings.len(), gazetteer.len() * NEARBY_RING_LEN);
        gazetteer
    }

    /// Number of districts (229 for the 2011 table).
    pub fn len(&self) -> usize {
        self.districts.len()
    }

    /// Always false for a loaded gazetteer.
    pub fn is_empty(&self) -> bool {
        self.districts.is_empty()
    }

    /// District by id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this gazetteer.
    pub fn district(&self, id: DistrictId) -> &District {
        &self.districts[id.0 as usize]
    }

    /// All districts in id order.
    pub fn districts(&self) -> &[District] {
        &self.districts
    }

    /// The synthetic polygon footprint of a district.
    pub fn footprint(&self, id: DistrictId) -> &Polygon {
        &self.footprints[id.0 as usize]
    }

    /// Districts belonging to `province`.
    pub fn districts_in(&self, province: Province) -> impl Iterator<Item = &District> {
        self.districts
            .iter()
            .filter(move |d| d.province == province)
    }

    /// Exact lookup by romanized name (case-insensitive, suffix included).
    /// Several districts may share a name across provinces (every large city
    /// has a "Jung-gu"), hence the slice result.
    pub fn find_by_name_en(&self, name: &str) -> &[DistrictId] {
        self.by_name_en
            .get(&name.to_ascii_lowercase())
            .map_or(&[], |v| v.as_slice())
    }

    /// Exact lookup by Korean name.
    pub fn find_by_name_ko(&self, name: &str) -> &[DistrictId] {
        self.by_name_ko.get(name).map_or(&[], |v| v.as_slice())
    }

    /// The district uniquely keyed by `(state, county)` — the pair a
    /// [`crate::LocationRecord`] carries (province English name + district
    /// romanized name). District names repeat across provinces (every large
    /// city has a "Jung-gu") but are unique within one, so the pair
    /// identifies at most one district. Used to reattach the district id to
    /// records parsed back from the Yahoo XML, which does not carry ids.
    pub fn find_district(&self, state: &str, county: &str) -> Option<DistrictId> {
        self.find_by_name_en(county)
            .iter()
            .copied()
            .find(|&id| self.district(id).province.name_en() == state)
    }

    /// The district whose centroid is nearest to `p`, together with the
    /// distance in km, or `None` when `p` is outside [`KOREA_BBOX`].
    pub fn nearest_district(&self, p: Point) -> Option<(DistrictId, f64)> {
        if !KOREA_BBOX.contains(p) {
            return None;
        }
        let (idx, _) = self.centroid_tree.nearest(p)?;
        let d = &self.districts[idx];
        Some((d.id, p.haversine_km(d.centroid)))
    }

    /// The `k` districts whose centroids are nearest to `p`, nearest-first.
    /// Unlike [`Gazetteer::nearest_district`] this does not reject points
    /// outside Korea — callers use it for "districts around here" queries.
    pub fn nearest_districts(&self, p: Point, k: usize) -> Vec<DistrictId> {
        self.centroid_tree
            .nearest_k(p, k)
            .into_iter()
            .map(|(idx, _)| self.districts[idx].id)
            .collect()
    }

    /// The [`NEARBY_RING_LEN`] districts whose centroids are nearest to
    /// district `id`'s centroid, nearest-first (`id` itself included):
    /// exactly `nearest_districts(district(id).centroid, NEARBY_RING_LEN)`,
    /// precomputed at load.
    pub fn nearby_ring(&self, id: DistrictId) -> &[DistrictId] {
        let start = id.0 as usize * NEARBY_RING_LEN;
        &self.rings[start..start + NEARBY_RING_LEN]
    }

    /// Districts adjacent to `id`: footprints whose circles overlap (with a
    /// 15% slack for the polygonal approximation). Does not include `id`.
    pub fn adjacent_districts(&self, id: DistrictId) -> Vec<DistrictId> {
        let d = self.district(id);
        self.centroid_tree
            .nearest_k(d.centroid, 16)
            .into_iter()
            .map(|(idx, _)| &self.districts[idx])
            .filter(|other| {
                other.id != id
                    && d.centroid.haversine_km(other.centroid)
                        <= 1.15 * (d.footprint_radius_km() + other.footprint_radius_km())
            })
            .map(|other| other.id)
            .collect()
    }

    /// Resolves `p` to a district: polygon-containment first (checking the
    /// nearest few footprints), falling back to the nearest centroid. This is
    /// the semantic the mock Yahoo endpoint exposes.
    pub fn resolve_point(&self, p: Point) -> Option<DistrictId> {
        if !KOREA_BBOX.contains(p) {
            return None;
        }
        let candidates = self.centroid_tree.nearest_k(p, 4);
        for &(idx, _) in &candidates {
            if self.footprints[idx].contains(p) {
                return Some(self.districts[idx].id);
            }
        }
        candidates.first().map(|&(idx, _)| self.districts[idx].id)
    }

    /// Maps a uniform draw in `[0, 1)` to a district, weighted by 2011
    /// population. Deterministic: the caller supplies the randomness.
    pub fn weighted_district(&self, u: f64) -> DistrictId {
        let target = u.clamp(0.0, 0.999_999_999) * self.total_pop;
        let idx = self.cumulative_pop.partition_point(|&c| c <= target);
        self.districts[idx.min(self.districts.len() - 1)].id
    }

    /// Draws a point inside the district's footprint, driven by the caller's
    /// uniform source.
    pub fn sample_point_in<F: FnMut() -> f64>(&self, id: DistrictId, uniform01: F) -> Point {
        self.footprints[id.0 as usize].sample_interior(uniform01)
    }

    /// Like [`Gazetteer::sample_point_in`], but contracts the draw toward
    /// the district centroid by `scale` in `(0, 1]`. People cluster around
    /// district centres (stations, downtowns), and the contraction keeps
    /// synthetic GPS fixes away from footprint borders where neighbouring
    /// districts overlap — matching how rarely a real fix geocodes into the
    /// adjacent district.
    pub fn sample_point_in_scaled<F: FnMut() -> f64>(
        &self,
        id: DistrictId,
        scale: f64,
        uniform01: F,
    ) -> Point {
        let p = self.footprints[id.0 as usize].sample_interior(uniform01);
        let c = self.districts[id.0 as usize].centroid;
        let s = scale.clamp(0.0, 1.0);
        Point::new(c.lat + (p.lat - c.lat) * s, c.lon + (p.lon - c.lon) * s)
    }

    /// Synthesizes a deterministic neighbourhood ("town") label for a point
    /// inside a district — fidelity filler for the `<town>` element of the
    /// Yahoo response; the analysis never reads it.
    pub fn town_label(&self, id: DistrictId, p: Point) -> String {
        let d = self.district(id);
        // Quantize the point so nearby coordinates share a town.
        let qx = (p.lat * 50.0).floor() as i64;
        let qy = (p.lon * 50.0).floor() as i64;
        let h = (qx.wrapping_mul(0x9E37_79B9) ^ qy.wrapping_mul(0x85EB_CA6B)).unsigned_abs();
        format!("{} {}-dong", d.stem_en(), h % 26 + 1)
    }
}

impl Default for Gazetteer {
    fn default() -> Self {
        Self::load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_has_full_table() {
        let g = Gazetteer::load();
        assert_eq!(g.len(), 229);
        assert!(!g.is_empty());
    }

    #[test]
    fn find_by_name_handles_ambiguity() {
        let g = Gazetteer::load();
        // "Jung-gu" exists in Seoul, Busan, Daegu, Incheon, Daejeon, Ulsan.
        let hits = g.find_by_name_en("Jung-gu");
        assert_eq!(hits.len(), 6, "Jung-gu provinces: {hits:?}");
        let unique = g.find_by_name_en("Yangcheon-gu");
        assert_eq!(unique.len(), 1);
        assert_eq!(g.district(unique[0]).province, Province::Seoul);
        assert!(g.find_by_name_en("Atlantis-gu").is_empty());
    }

    #[test]
    fn find_by_name_is_case_insensitive() {
        let g = Gazetteer::load();
        assert_eq!(
            g.find_by_name_en("GANGNAM-GU"),
            g.find_by_name_en("gangnam-gu")
        );
        assert_eq!(g.find_by_name_en("Gangnam-gu").len(), 1);
    }

    #[test]
    fn find_district_disambiguates_by_state() {
        let g = Gazetteer::load();
        let seoul = g.find_district("Seoul", "Jung-gu").unwrap();
        let busan = g.find_district("Busan", "Jung-gu").unwrap();
        assert_ne!(seoul, busan);
        assert_eq!(g.district(seoul).province, Province::Seoul);
        assert_eq!(g.district(busan).province, Province::Busan);
        assert!(g.find_district("Seoul", "Haeundae-gu").is_none());
        assert!(g.find_district("Atlantis", "Jung-gu").is_none());
        // Round trip: every district is found by its own (state, county).
        for d in g.districts() {
            assert_eq!(g.find_district(d.province.name_en(), d.name_en), Some(d.id));
        }
    }

    #[test]
    fn korean_name_lookup() {
        let g = Gazetteer::load();
        let hits = g.find_by_name_ko("강남구");
        assert_eq!(hits.len(), 1);
        assert_eq!(g.district(hits[0]).name_en, "Gangnam-gu");
    }

    #[test]
    fn centroid_resolves_to_own_district() {
        let g = Gazetteer::load();
        for d in g.districts() {
            let resolved = g.resolve_point(d.centroid).unwrap();
            assert_eq!(
                resolved,
                d.id,
                "centroid of {} resolved to {}",
                d.name_en,
                g.district(resolved).name_en
            );
        }
    }

    #[test]
    fn nearest_district_rejects_points_outside_korea() {
        let g = Gazetteer::load();
        assert!(g.nearest_district(Point::new(48.85, 2.35)).is_none()); // Paris
        assert!(g.nearest_district(Point::new(35.68, 139.69)).is_none()); // Tokyo
        assert!(g.nearest_district(Point::new(37.5663, 126.9779)).is_some()); // Seoul
    }

    #[test]
    fn seoul_city_hall_is_in_jung_gu() {
        let g = Gazetteer::load();
        let id = g.resolve_point(Point::new(37.5663, 126.9779)).unwrap();
        let d = g.district(id);
        assert_eq!(d.province, Province::Seoul);
        // City hall sits on the Jung-gu/Jongno-gu boundary; either is correct
        // at the fidelity of synthetic footprints.
        assert!(
            d.name_en == "Jung-gu" || d.name_en == "Jongno-gu",
            "resolved to {}",
            d.name_en
        );
    }

    #[test]
    fn weighted_district_covers_distribution_edges() {
        let g = Gazetteer::load();
        let first = g.weighted_district(0.0);
        assert_eq!(first, DistrictId(0));
        let last = g.weighted_district(0.999_999_999);
        assert_eq!(last.0 as usize, g.len() - 1);
        // Monotone: larger u never maps to a smaller id.
        let mut prev = 0u16;
        for i in 0..100 {
            let id = g.weighted_district(i as f64 / 100.0);
            assert!(id.0 >= prev);
            prev = id.0;
        }
    }

    #[test]
    fn weighted_district_prefers_populous_districts() {
        let g = Gazetteer::load();
        // Sample on a fine uniform lattice and count Seoul vs Jeju draws.
        let mut seoul = 0;
        let mut jeju = 0;
        for i in 0..10_000 {
            let d = g.district(g.weighted_district(i as f64 / 10_000.0));
            match d.province {
                Province::Seoul => seoul += 1,
                Province::Jeju => jeju += 1,
                _ => {}
            }
        }
        assert!(seoul > 10 * jeju, "seoul {seoul} vs jeju {jeju}");
    }

    #[test]
    fn sample_point_resolves_to_sampled_district_mostly() {
        let g = Gazetteer::load();
        let mut state = 0.7317f64;
        let mut next = move || {
            state = (state * 9301.0 + 0.49297).fract();
            state
        };
        let mut hits = 0;
        let total = 500;
        for i in 0..total {
            let id = DistrictId((i % g.len()) as u16);
            let p = g.sample_point_in(id, &mut next);
            if g.resolve_point(p) == Some(id) {
                hits += 1;
            }
        }
        // Footprints overlap near borders, so a perfect score is impossible;
        // the bulk must resolve back. This mirrors real GPS/geocoder noise.
        assert!(hits * 10 >= total * 7, "only {hits}/{total} resolved back");
    }

    #[test]
    fn town_label_is_deterministic_and_prefixed() {
        let g = Gazetteer::load();
        let id = g.find_by_name_en("Gangnam-gu")[0];
        let p = Point::new(37.50, 127.04);
        assert_eq!(g.town_label(id, p), g.town_label(id, p));
        assert!(g.town_label(id, p).starts_with("Gangnam "));
        assert!(g.town_label(id, p).ends_with("-dong"));
    }

    #[test]
    fn adjacency_is_symmetric_and_local() {
        let g = Gazetteer::load();
        let yangcheon = g.find_by_name_en("Yangcheon-gu")[0];
        let adjacent = g.adjacent_districts(yangcheon);
        assert!(!adjacent.is_empty(), "urban gu must have neighbours");
        assert!(!adjacent.contains(&yangcheon));
        for n in &adjacent {
            // Symmetry.
            assert!(
                g.adjacent_districts(*n).contains(&yangcheon),
                "{} not symmetric with Yangcheon-gu",
                g.district(*n).name_en
            );
            // Locality: neighbours are within ~25 km for Seoul gu.
            let d = g
                .district(yangcheon)
                .centroid
                .haversine_km(g.district(*n).centroid);
            assert!(d < 25.0, "{} is {d} km away", g.district(*n).name_en);
        }
        // Jeju island districts are never adjacent to the mainland.
        let jeju = g.find_by_name_en("Jeju-si")[0];
        for n in g.adjacent_districts(jeju) {
            assert_eq!(g.district(n).province, Province::Jeju);
        }
    }

    #[test]
    fn districts_in_province_counts() {
        let g = Gazetteer::load();
        assert_eq!(g.districts_in(Province::Seoul).count(), 25);
        assert_eq!(g.districts_in(Province::Jeju).count(), 2);
    }
}
