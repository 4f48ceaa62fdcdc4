//! Verdict checks: the paper's tables, Theorem 1 against the emulator,
//! and reading cells back out of daemon responses.

use std::collections::{BTreeMap, BTreeSet};

use leakaudit_analyzer::{LeakReport, LeakRow};
use leakaudit_core::Observer;
use leakaudit_scenarios::{Scenario, ScenarioSpec};
use leakaudit_service::Json;

/// Tolerance of the paper-table comparison (as in the repository's
/// `leakage_tables` suite).
const TOL: f64 = 1e-9;

/// One leakage row in the wire's terms.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRow {
    /// 0 = instruction, 1 = data, 2 = shared.
    pub channel: u8,
    /// The observer's invisible low bits.
    pub offset_bits: u8,
    /// Stuttering observer.
    pub stuttering: bool,
    /// The count as a hex big number.
    pub count_hex: String,
    /// `log2(count)`.
    pub bits: f64,
}

impl WireRow {
    fn of(row: &LeakRow) -> Self {
        WireRow {
            channel: row.spec.channel.code(),
            offset_bits: row.spec.observer.offset_bits(),
            stuttering: row.spec.observer.is_stuttering(),
            count_hex: row.count.to_hex(),
            bits: row.bits,
        }
    }
}

/// A report's rows in wire terms.
pub fn report_rows(report: &LeakReport) -> Vec<WireRow> {
    report.rows().iter().map(WireRow::of).collect()
}

/// Parses the inside of a cell's `"rows":[…]` array.
///
/// # Errors
///
/// A message naming the malformed field.
pub fn parse_rows(rows: &str) -> Result<Vec<WireRow>, String> {
    let json = Json::parse(&format!("[{rows}]"))?;
    let items = json.as_arr().ok_or("rows are not an array")?;
    items
        .iter()
        .map(|row| {
            let num = |key: &str| {
                row.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("row lacks {key}"))
            };
            let bits = match row.get("bits") {
                Some(Json::Num(bits)) => *bits,
                _ => return Err("row lacks bits".to_string()),
            };
            Ok(WireRow {
                channel: u8::try_from(num("channel")?).map_err(|e| e.to_string())?,
                offset_bits: u8::try_from(num("offset_bits")?).map_err(|e| e.to_string())?,
                stuttering: num("stuttering")? == 1,
                count_hex: row
                    .get("count_hex")
                    .and_then(Json::as_str)
                    .ok_or("row lacks count_hex")?
                    .to_string(),
                bits,
            })
        })
        .collect()
}

/// The cells of a `result` response, or of the lines of a `stream`
/// answer, in order: `(id, rows)` with `rows` the text inside the
/// cell's `"rows":[…]`, or `None` for a cell that carries an error.
pub fn wire_cells(text: &str) -> Vec<(&str, Option<&str>)> {
    const ID: &str = "\"id\":\"";
    const ROWS: &str = "\"rows\":[";
    let starts: Vec<usize> = text.match_indices(ID).map(|(at, _)| at).collect();
    starts
        .iter()
        .enumerate()
        .map(|(i, &at)| {
            let cell = &text[at + ID.len()..starts.get(i + 1).copied().unwrap_or(text.len())];
            let id = &cell[..cell.find('"').unwrap_or(cell.len())];
            let rows = cell.find(ROWS).and_then(|r| {
                let rest = &cell[r + ROWS.len()..];
                rest.find(']').map(|end| &rest[..end])
            });
            (id, rows)
        })
        .collect()
}

/// The first `"key":<integer>` field of a response line.
pub fn wire_u64(text: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `true` for an `{"ok":true,…}` response line.
pub fn is_ok(text: &str) -> bool {
    text.starts_with("{\"ok\":true")
}

/// Checks a report against the paper's table for its scenario: I- and
/// D-cache rows for the address, block and stuttering-block observers,
/// and the bank-trace bound where the paper gives one.
///
/// # Errors
///
/// The first cell that differs by more than 1e-9.
pub fn matches_paper(s: &Scenario, report: &LeakReport) -> Result<(), String> {
    let b = s.block_bits;
    let observers = [
        Observer::address(),
        Observer::block(b),
        Observer::block(b).stuttering(),
    ];
    let mut cells: Vec<(String, f64, f64)> = Vec::new();
    for (i, obs) in observers.iter().enumerate() {
        cells.push((
            format!("I-cache {obs}"),
            report.icache_bits(*obs),
            s.expected.icache[i],
        ));
        cells.push((
            format!("D-cache {obs}"),
            report.dcache_bits(*obs),
            s.expected.dcache[i],
        ));
    }
    if let Some(bank) = s.expected.dcache_bank {
        cells.push((
            "D-cache bank".to_string(),
            report.dcache_bits(Observer::bank()),
            bank,
        ));
    }
    match cells
        .into_iter()
        .find(|(_, got, want)| (got - want).abs() >= TOL || got.is_nan())
    {
        Some((what, got, want)) => Err(format!("{}: {what}: measured {got}, paper {want}", s.name)),
        None => Ok(()),
    }
}

/// Theorem 1 for one cell (`scenario` is `spec` built): under every
/// heap layout, the number of distinct concrete views over all secrets
/// never exceeds the static count, for every channel and every observer
/// of the cell's suite (built from `ScenarioSpec::observation_bits`).
/// Counts beyond `u64` are compared in log2 bits.
///
/// # Errors
///
/// The first emulation failure, missing row, or unsound bound.
pub fn theorem1(spec: &ScenarioSpec, scenario: &Scenario, rows: &[WireRow]) -> Result<(), String> {
    let (block, bank, page) = spec.observation_bits();
    let mut observers: Vec<Observer> = Vec::new();
    for obs in [
        Observer::address(),
        Observer::block(block),
        Observer::block(block).stuttering(),
        Observer::block(bank),
        Observer::block(bank).stuttering(),
        Observer::block(page),
    ] {
        if !observers.contains(&obs) {
            observers.push(obs);
        }
    }
    let mut by_layout: BTreeMap<usize, Vec<_>> = BTreeMap::new();
    for case in &scenario.cases {
        let trace = scenario
            .emulate(case)
            .map_err(|e| format!("{}: {}: {e}", scenario.name, case.label))?;
        by_layout.entry(case.layout).or_default().push(trace);
    }
    for (layout, traces) in &by_layout {
        for channel in 0..3u8 {
            let addresses: Vec<Vec<u64>> = traces
                .iter()
                .map(|t| match channel {
                    0 => t.fetch_addresses(),
                    1 => t.data_addresses(),
                    _ => t.all_addresses(),
                })
                .collect();
            for obs in &observers {
                let views: BTreeSet<Vec<u64>> =
                    addresses.iter().map(|a| obs.view_concrete(a)).collect();
                let row = rows
                    .iter()
                    .find(|r| {
                        r.channel == channel
                            && r.offset_bits == obs.offset_bits()
                            && r.stuttering == obs.is_stuttering()
                    })
                    .ok_or_else(|| format!("{}: no row for channel {channel} {obs}", spec.id()))?;
                let seen = views.len() as u64;
                let sound = match u64::from_str_radix(&row.count_hex, 16) {
                    Ok(bound) => seen <= bound,
                    Err(_) => (seen as f64).log2() <= row.bits + TOL,
                };
                if !sound {
                    return Err(format!(
                        "{} layout {layout}: channel {channel} {obs}: {seen} distinct views \
                         exceed the bound 0x{}",
                        spec.id(),
                        row.count_hex
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_cells_split_rows_and_errors() {
        let text = r#"{"ok":true,"cells":[{"id":"a[b=6]","rows":[{"channel":0,"offset_bits":0,"stuttering":0,"count_hex":"2","bits":1}]},{"id":"c[b=5]","error":"fuel"}]}"#;
        let cells = wire_cells(text);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].0, "a[b=6]");
        let rows = parse_rows(cells[0].1.expect("first cell has rows")).expect("rows parse");
        assert_eq!(rows[0].count_hex, "2");
        assert_eq!(rows[0].bits, 1.0);
        assert_eq!(cells[1], ("c[b=5]", None));
    }
}
