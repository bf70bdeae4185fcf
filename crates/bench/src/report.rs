//! Plain-text table rendering for the experiment harness, plus the
//! machine-readable benchmark report consumed by CI.

use std::fmt::Write as _;

pub use robo_trace::HostInfo;

/// A fixed-width text table with a title and optional footnotes, printed by
/// every experiment binary in the style of the paper's tables.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Starts a table with a title.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            ..Default::default()
        }
    }

    /// Sets the column headers.
    pub fn headers<I, S>(mut self, headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.headers = headers.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(row);
        self
    }

    /// Appends a footnote line.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut parts = Vec::with_capacity(cols);
            for (i, cell) in cells.iter().enumerate() {
                parts.push(format!("{cell:<width$}", width = widths[i]));
            }
            let _ = writeln!(out, "| {} |", parts.join(" | "));
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 3 * cols + 1;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }

    /// Renders the table as GitHub-flavoured markdown (title as a
    /// heading, notes as trailing italic lines) — the format the CI
    /// `analyse` report artifact uses.
    pub fn render_markdown(&self) -> String {
        fn cell(s: &str) -> String {
            s.replace('|', "\\|")
        }
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = writeln!(
            out,
            "| {} |",
            self.headers
                .iter()
                .map(|h| cell(h))
                .collect::<Vec<_>>()
                .join(" | ")
        );
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| " --- ")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "| {} |",
                row.iter().map(|c| cell(c)).collect::<Vec<_>>().join(" | ")
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "\n*{note}*");
        }
        out
    }
}

/// A machine-readable benchmark report: bench name → median nanoseconds,
/// plus named speedup ratios and optional [`HostInfo`] provenance.
/// Serialized as JSON by hand (the workspace builds fully offline, so
/// there is no serde) and uploaded as a CI artifact (`BENCH_5.json`,
/// `BENCH_6.json`) by the bench runners.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    host: Option<HostInfo>,
    medians_ns: Vec<(String, f64)>,
    speedups: Vec<(String, f64)>,
}

impl BenchReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches host provenance (CPU model, SIMD features, core count,
    /// compiler version, serving tier) to the report.
    pub fn set_host(&mut self, host: HostInfo) -> &mut Self {
        self.host = Some(host);
        self
    }

    /// The attached host provenance, if any.
    pub fn host(&self) -> Option<&HostInfo> {
        self.host.as_ref()
    }

    /// Records one bench's median time (nanoseconds per evaluated item).
    pub fn record_median_ns(&mut self, name: impl Into<String>, median_ns: f64) -> &mut Self {
        self.medians_ns.push((name.into(), median_ns));
        self
    }

    /// Records a named speedup ratio (e.g. lane path over scalar path).
    pub fn record_speedup(&mut self, name: impl Into<String>, ratio: f64) -> &mut Self {
        self.speedups.push((name.into(), ratio));
        self
    }

    /// Looks up a recorded median by name.
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        self.medians_ns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a recorded speedup by name.
    pub fn speedup_of(&self, name: &str) -> Option<f64> {
        self.speedups
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// All recorded medians, in insertion order.
    pub fn medians(&self) -> impl Iterator<Item = &(String, f64)> {
        self.medians_ns.iter()
    }

    /// All recorded speedups, in insertion order.
    pub fn speedups(&self) -> impl Iterator<Item = &(String, f64)> {
        self.speedups.iter()
    }

    /// Renders the report as a JSON object:
    /// `{"host": {...}, "medians_ns": {name: ns, ...},
    /// "speedups": {name: ratio, ...}}` (the `host` field is present only
    /// when [`BenchReport::set_host`] was called).
    pub fn to_json(&self) -> String {
        fn escape(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => vec!['\\', '"'],
                    '\\' => vec!['\\', '\\'],
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                    c => vec![c],
                })
                .collect()
        }
        fn object(entries: &[(String, f64)]) -> String {
            let fields: Vec<String> = entries
                .iter()
                .map(|(k, v)| format!("    \"{}\": {:.3}", escape(k), v))
                .collect();
            if fields.is_empty() {
                "{}".to_string()
            } else {
                format!("{{\n{}\n  }}", fields.join(",\n"))
            }
        }
        let host = match &self.host {
            None => String::new(),
            Some(h) => format!(
                "  \"host\": {{\n    \"cpu_model\": \"{}\",\n    \"features\": \"{}\",\n    \"cores\": {},\n    \"rustc\": \"{}\",\n    \"tier\": \"{}\"\n  }},\n",
                escape(&h.cpu_model),
                escape(&h.features),
                h.cores,
                escape(&h.rustc),
                escape(&h.tier),
            ),
        };
        format!(
            "{{\n{host}  \"medians_ns\": {},\n  \"speedups\": {}\n}}\n",
            object(&self.medians_ns),
            object(&self.speedups),
        )
    }

    /// Writes the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be written.
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Parses a [`BenchReport::to_json`] artifact back into a report
    /// (medians and speedups; the `host` block is provenance and is
    /// skipped). Hand-rolled for that exact shape — the workspace builds
    /// offline, without serde.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed line when a section entry is
    /// not a `"name": number` pair.
    pub fn from_json(json: &str) -> Result<Self, String> {
        #[derive(PartialEq)]
        enum Section {
            None,
            Medians,
            Speedups,
            Skip,
        }
        let mut report = Self::new();
        let mut section = Section::None;
        for raw in json.lines() {
            let line = raw.trim().trim_end_matches(',');
            if line.is_empty() || line == "{" || line == "}" {
                continue;
            }
            if let Some(rest) = line.strip_prefix('"') {
                if let Some((key, after)) = rest.split_once('"') {
                    let after = after.trim_start();
                    if let Some(value) = after.strip_prefix(':') {
                        let value = value.trim();
                        if value.starts_with('{') {
                            section = match key {
                                "medians_ns" => Section::Medians,
                                "speedups" => Section::Speedups,
                                _ => Section::Skip,
                            };
                            // One-line empty section: `"speedups": {}`.
                            if value.contains('}') {
                                section = Section::None;
                            }
                            continue;
                        }
                        match section {
                            Section::None => {
                                return Err(format!("entry outside any section: `{line}`"))
                            }
                            Section::Skip => continue,
                            Section::Medians | Section::Speedups => {
                                let num: f64 = value
                                    .parse()
                                    .map_err(|_| format!("malformed number in `{line}`"))?;
                                if section == Section::Medians {
                                    report.record_median_ns(key, num);
                                } else {
                                    report.record_speedup(key, num);
                                }
                                continue;
                            }
                        }
                    }
                }
                return Err(format!("malformed entry `{line}`"));
            }
            // A bare `}` closing a section (possibly followed by a comma,
            // already stripped).
            if line.starts_with('}') {
                section = Section::None;
            }
        }
        Ok(report)
    }
}

/// Suffix convention for 50th-percentile latency medians recorded by the
/// serving load generator (`load_serve`): `<sweep_point>_p50_ns`.
pub const LATENCY_P50_SUFFIX: &str = "_p50_ns";

/// Suffix convention for 99th-percentile (tail) latency medians:
/// `<sweep_point>_p99_ns`.
pub const LATENCY_P99_SUFFIX: &str = "_p99_ns";

/// Whether a `medians_ns` key is a latency percentile from the serving
/// load generator. Latency keys render in their own p50/p99 table and
/// gate lower-is-better, unlike throughput medians.
pub fn is_latency_key(name: &str) -> bool {
    name.ends_with(LATENCY_P50_SUFFIX) || name.ends_with(LATENCY_P99_SUFFIX)
}

/// Strips the latency-percentile suffix from a key, if it has one,
/// returning the sweep-point stem (e.g. `serve_iiwa14_c4` from
/// `serve_iiwa14_c4_p99_ns`).
pub fn latency_stem(name: &str) -> Option<&str> {
    name.strip_suffix(LATENCY_P50_SUFFIX)
        .or_else(|| name.strip_suffix(LATENCY_P99_SUFFIX))
}

/// The median of a sample set (averaging the middle pair for even sizes).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("comparable samples"));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        0.5 * (samples[mid - 1] + samples[mid])
    }
}

/// Formats seconds as a microsecond string with two decimals.
pub fn us(seconds: f64) -> String {
    format!("{:.2}", seconds * 1e6)
}

/// Formats a speedup ratio as `N.Nx`.
pub fn speedup(ratio: f64) -> String {
    format!("{ratio:.1}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let mut r = BenchReport::new();
        r.record_median_ns("some_bench", 123.4);
        r.record_speedup("wide_vs_scalar", 2.5);
        r.record_speedup("jit_vs_interp", 1.4);
        r.set_host(HostInfo {
            cpu_model: "Test".into(),
            features: "sse2".into(),
            cores: 2,
            rustc: "rustc x".into(),
            tier: "sse2".into(),
        });
        let parsed = BenchReport::from_json(&r.to_json()).expect("parses own output");
        assert_eq!(parsed.median_ns("some_bench"), Some(123.4));
        assert_eq!(parsed.speedup_of("wide_vs_scalar"), Some(2.5));
        assert_eq!(parsed.speedup_of("jit_vs_interp"), Some(1.4));
        // The host block is provenance, not data — skipped on parse.
        assert!(parsed.host().is_none());
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(BenchReport::from_json("{\n  \"medians_ns\": {\n    \"a\": nope\n  }\n}").is_err());
        assert!(BenchReport::from_json("\"floating\": 1.0").is_err());
        // Empty sections are fine.
        let r = BenchReport::from_json("{\n  \"medians_ns\": {},\n  \"speedups\": {}\n}").unwrap();
        assert_eq!(r.median_ns("anything"), None);
    }

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("demo").headers(["a", "longer"]);
        t.row(["1", "2"]);
        t.row(["333", "4"]);
        t.note("a note");
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("| a   | longer |"));
        assert!(s.contains("note: a note"));
    }

    #[test]
    fn renders_markdown_table() {
        let mut t = Table::new("demo").headers(["a", "b|c"]);
        t.row(["1", "2"]);
        t.note("a note");
        let md = t.render_markdown();
        assert!(md.contains("### demo"));
        assert!(md.contains("| a | b\\|c |"));
        assert!(md.contains("| --- | --- |"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("*a note*"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("x").headers(["a"]);
        t.row(["1", "2"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(us(1.5e-6), "1.50");
        assert_eq!(speedup(8.04), "8.0x");
    }

    #[test]
    fn median_odd_even_and_order() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn bench_report_json_shape() {
        let mut r = BenchReport::new();
        r.record_median_ns("tape_scalar", 1234.5678);
        r.record_median_ns("tape_lanes4", 400.0);
        r.record_speedup("tape_lanes4_vs_scalar", 3.086);
        let json = r.to_json();
        assert!(json.contains("\"medians_ns\""));
        assert!(json.contains("\"tape_scalar\": 1234.568"));
        assert!(json.contains("\"speedups\""));
        assert!(json.contains("\"tape_lanes4_vs_scalar\": 3.086"));
        assert_eq!(r.median_ns("tape_lanes4"), Some(400.0));
        assert_eq!(r.speedup_of("missing"), None);
    }

    #[test]
    fn bench_report_host_block() {
        let mut r = BenchReport::new();
        r.record_median_ns("x", 1.0);
        assert!(!r.to_json().contains("\"host\""));
        r.set_host(HostInfo {
            cpu_model: "Test CPU".to_owned(),
            features: "sse2,avx2".to_owned(),
            cores: 4,
            rustc: "rustc 1.0.0".to_owned(),
            tier: "avx2".to_owned(),
        });
        let json = r.to_json();
        assert!(json.contains("\"host\""));
        assert!(json.contains("\"cpu_model\": \"Test CPU\""));
        assert!(json.contains("\"cores\": 4"));
        assert!(json.contains("\"tier\": \"avx2\""));
        // The medians/speedups sections keep their shape alongside host.
        assert!(json.contains("\"medians_ns\""));
        assert!(json.contains("\"speedups\""));
    }

    #[test]
    fn latency_key_convention() {
        assert!(is_latency_key("serve_iiwa14_c4_p50_ns"));
        assert!(is_latency_key("serve_iiwa14_c4_p99_ns"));
        assert!(!is_latency_key("tape_native"));
        assert!(!is_latency_key("serve_iiwa14_c4_p95_ns"));
        assert_eq!(
            latency_stem("serve_iiwa14_c4_p50_ns"),
            Some("serve_iiwa14_c4")
        );
        assert_eq!(
            latency_stem("serve_iiwa14_c4_p99_ns"),
            Some("serve_iiwa14_c4")
        );
        assert_eq!(latency_stem("tape_native"), None);
    }

    #[test]
    fn bench_report_escapes_names() {
        let mut r = BenchReport::new();
        r.record_median_ns("quote\"back\\slash", 1.0);
        let json = r.to_json();
        assert!(json.contains("quote\\\"back\\\\slash"));
    }
}
