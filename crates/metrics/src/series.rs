//! Named data series — the data behind each figure.
//!
//! Every figure in the paper is a grouped bar or line chart: a set of
//! categories (workloads, input sizes) × a set of series (scheduling
//! policies, process counts). [`FigureData`] captures exactly that, and
//! renders to an aligned text table or JSON so the experiment binaries
//! can regenerate the paper's plots as data.

use std::collections::BTreeMap;

/// A single named series: ordered (category → value) pairs.
#[derive(Debug, Clone, Default)]
pub struct DataSeries {
    /// Series label, e.g. `"RDA: Strict"`.
    pub name: String,
    /// Ordered points: category label → value.
    pub points: Vec<(String, f64)>,
}

impl DataSeries {
    /// New empty series with the given label.
    pub fn new(name: impl Into<String>) -> Self {
        DataSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, category: impl Into<String>, value: f64) {
        self.points.push((category.into(), value));
    }

    /// Look up a value by category label.
    pub fn get(&self, category: &str) -> Option<f64> {
        self.points
            .iter()
            .find(|(c, _)| c == category)
            .map(|&(_, v)| v)
    }
}

/// The full data set of one figure: several series over shared categories.
#[derive(Debug, Clone, Default)]
pub struct FigureData {
    /// Figure identifier, e.g. `"Figure 7"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Unit of the plotted value, e.g. `"J"`, `"GFLOPS"`.
    pub unit: String,
    /// The series, in legend order.
    pub series: Vec<DataSeries>,
}

impl FigureData {
    /// New empty figure.
    pub fn new(id: impl Into<String>, title: impl Into<String>, unit: impl Into<String>) -> Self {
        FigureData {
            id: id.into(),
            title: title.into(),
            unit: unit.into(),
            series: Vec::new(),
        }
    }

    /// Add a value to the series named `series` (creating it if absent)
    /// under the given category.
    pub fn add(&mut self, series: &str, category: &str, value: f64) {
        if let Some(s) = self.series.iter_mut().find(|s| s.name == series) {
            s.push(category, value);
        } else {
            let mut s = DataSeries::new(series);
            s.push(category, value);
            self.series.push(s);
        }
    }

    /// Value for (series, category) if present.
    pub fn get(&self, series: &str, category: &str) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.name == series)?
            .get(category)
    }

    /// The union of category labels, in first-seen order.
    pub fn categories(&self) -> Vec<String> {
        let mut seen = BTreeMap::new();
        let mut out = Vec::new();
        for s in &self.series {
            for (c, _) in &s.points {
                if seen.insert(c.clone(), ()).is_none() {
                    out.push(c.clone());
                }
            }
        }
        out
    }

    /// Render as an aligned text table: one row per category, one column
    /// per series.
    pub fn to_text_table(&self) -> String {
        use crate::table::TextTable;
        let mut header = vec!["workload".to_string()];
        header.extend(self.series.iter().map(|s| s.name.clone()));
        let mut t = TextTable::new(header);
        for cat in self.categories() {
            let mut row = vec![cat.clone()];
            for s in &self.series {
                row.push(match s.get(&cat) {
                    Some(v) => format_value(v),
                    None => "-".to_string(),
                });
            }
            t.add_row(row);
        }
        format!("{} — {} [{}]\n{}", self.id, self.title, self.unit, t.render())
    }

    /// Encode as a [`Json`](crate::Json) tree:
    /// `{"id","title","unit","series":[{"name","points":[[cat,val],…]},…]}`.
    pub fn to_json(&self) -> crate::Json {
        use crate::Json;
        Json::obj([
            ("id", Json::Str(self.id.clone())),
            ("title", Json::Str(self.title.clone())),
            ("unit", Json::Str(self.unit.clone())),
            (
                "series",
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::Str(s.name.clone())),
                                (
                                    "points",
                                    Json::Arr(
                                        s.points
                                            .iter()
                                            .map(|(c, v)| {
                                                Json::Arr(vec![
                                                    Json::Str(c.clone()),
                                                    Json::Num(*v),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else if v.abs() >= 0.1 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> FigureData {
        let mut f = FigureData::new("Figure 7", "System energy", "J");
        f.add("Default", "BLAS-1", 100.0);
        f.add("Strict", "BLAS-1", 104.0);
        f.add("Default", "BLAS-3", 200.0);
        f.add("Strict", "BLAS-3", 120.0);
        f
    }

    #[test]
    fn add_and_get() {
        let f = fig();
        assert_eq!(f.get("Strict", "BLAS-3"), Some(120.0));
        assert_eq!(f.get("Strict", "missing"), None);
        assert_eq!(f.get("missing", "BLAS-1"), None);
    }

    #[test]
    fn categories_in_first_seen_order() {
        let f = fig();
        assert_eq!(f.categories(), vec!["BLAS-1".to_string(), "BLAS-3".to_string()]);
    }

    #[test]
    fn text_table_contains_all_cells() {
        let f = fig();
        let txt = f.to_text_table();
        for needle in ["Figure 7", "BLAS-1", "BLAS-3", "Default", "Strict", "104", "120"] {
            assert!(txt.contains(needle), "missing {needle} in:\n{txt}");
        }
    }

    #[test]
    fn missing_cells_render_dash() {
        let mut f = FigureData::new("X", "t", "u");
        f.add("A", "c1", 1.0);
        f.add("B", "c2", 2.0);
        let txt = f.to_text_table();
        assert!(txt.contains('-'));
    }

    #[test]
    fn series_roundtrip_through_json() {
        let f = fig();
        let json = f.to_json().to_string_compact();
        let doc = crate::Json::parse(&json).unwrap();
        assert_eq!(doc.get("id").and_then(|v| v.as_str()), Some("Figure 7"));
        let series = doc.get("series").and_then(|s| s.as_arr()).unwrap();
        let name = |s: &crate::Json| s.get("name").and_then(|n| n.as_str()).unwrap().to_string();
        assert_eq!(series.iter().map(name).collect::<Vec<_>>(), ["Default", "Strict"]);
        let points = series[0].get("points").and_then(|p| p.as_arr()).unwrap();
        let point = |p: &crate::Json| {
            let pair = p.as_arr().unwrap();
            (pair[0].as_str().unwrap().to_string(), pair[1].as_f64().unwrap())
        };
        let want = [("BLAS-1".to_string(), 100.0), ("BLAS-3".to_string(), 200.0)];
        assert_eq!(points.iter().map(point).collect::<Vec<_>>(), want);
    }
}
