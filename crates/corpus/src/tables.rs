//! Catalog generation: region × topic statistics tables.
//!
//! Mirrors the shape of the IEA corpus: every relation is a statistics table
//! for one topic in one region, keyed by indicator codes (`PGElecDemand`)
//! with year columns 2000–2040 plus aggregate columns. Values are smooth
//! exponential-ish time series so growth-rate claims take realistic values.

use crate::CorpusConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scrutinizer_data::{Catalog, Schema, Table, Value};
use std::sync::Arc;

/// Region name pool (48 entries).
pub const REGIONS: &[&str] = &[
    "World",
    "OECD",
    "NonOECD",
    "China",
    "India",
    "UnitedStates",
    "Europe",
    "Africa",
    "MiddleEast",
    "Japan",
    "Brazil",
    "Russia",
    "SoutheastAsia",
    "LatinAmerica",
    "Eurasia",
    "Korea",
    "Canada",
    "Mexico",
    "Australia",
    "Germany",
    "France",
    "Italy",
    "Spain",
    "Poland",
    "Turkey",
    "Indonesia",
    "Thailand",
    "Vietnam",
    "Pakistan",
    "Bangladesh",
    "Nigeria",
    "Egypt",
    "SouthAfrica",
    "SaudiArabia",
    "Iran",
    "Iraq",
    "Argentina",
    "Chile",
    "Colombia",
    "Netherlands",
    "Belgium",
    "Sweden",
    "Norway",
    "Finland",
    "Denmark",
    "Switzerland",
    "Austria",
    "Greece",
];

/// Topic name pool (38 entries) with display units.
pub const TOPICS: &[(&str, &str)] = &[
    ("PowerGeneration", "TWh"),
    ("FinalConsumption", "Mtoe"),
    ("CoalSupply", "Mt"),
    ("OilSupply", "mb/d"),
    ("GasSupply", "bcm"),
    ("RenewableCapacity", "GW"),
    ("WindCapacity", "GW"),
    ("SolarCapacity", "GW"),
    ("HydroCapacity", "GW"),
    ("NuclearGeneration", "TWh"),
    ("CO2Emissions", "Mt"),
    ("EnergyIntensity", "toe"),
    ("ElectricityPrices", "USD/MWh"),
    ("InvestmentFlows", "USD billion"),
    ("BiofuelProduction", "mboe/d"),
    ("HeatGeneration", "PJ"),
    ("HydrogenProduction", "Mt"),
    ("StorageCapacity", "GWh"),
    ("GridInfrastructure", "km"),
    ("EnergyAccess", "million people"),
    ("DemandResponse", "GW"),
    ("EfficiencySavings", "Mtoe"),
    ("TransportDemand", "Mtoe"),
    ("IndustryDemand", "Mtoe"),
    ("BuildingsDemand", "Mtoe"),
    ("PetrochemicalDemand", "mb/d"),
    ("AviationDemand", "Mtoe"),
    ("ShippingDemand", "Mtoe"),
    ("MethaneEmissions", "Mt"),
    ("FlaringEmissions", "Mt"),
    ("CriticalMinerals", "kt"),
    ("BatteryDemand", "GWh"),
    ("EVStock", "million"),
    ("CoalTrade", "Mt"),
    ("GasTrade", "bcm"),
    ("OilTrade", "mb/d"),
    ("LNGCapacity", "bcm"),
    ("RefiningCapacity", "mb/d"),
];

/// Indicator key prefixes with their text phrases.
pub const KEY_PREFIXES: &[(&str, &str)] = &[
    ("PG", "power generation"),
    ("TFC", "total final consumption of"),
    ("IN", "input of"),
    ("OUT", "output of"),
    ("NET", "net"),
    ("GROSS", "gross"),
    ("CAP", "installed capacity of"),
    ("GEN", "generation from"),
    ("SUP", "supply of"),
    ("DEM", "demand for"),
    ("IMP", "imports of"),
    ("EXP", "exports of"),
    ("STK", "stocks of"),
    ("AVG", "average"),
    ("RES", "residential"),
    ("COM", "commercial"),
    ("IND", "industrial"),
    ("TRA", "transport"),
    ("PUB", "public sector"),
    ("AGR", "agricultural"),
];

/// Indicator measures with their text phrases.
pub const KEY_MEASURES: &[(&str, &str)] = &[
    ("ElecDemand", "electricity demand"),
    ("Coal", "coal"),
    ("Oil", "oil"),
    ("Gas", "natural gas"),
    ("Wind", "wind power"),
    ("Solar", "solar PV"),
    ("SolarThermal", "solar thermal"),
    ("Hydro", "hydropower"),
    ("Nuclear", "nuclear power"),
    ("Bioenergy", "bioenergy"),
    ("Heat", "heat"),
    ("Hydrogen", "hydrogen"),
    ("CO2", "carbon emissions"),
    ("Invest", "investment"),
    ("Access", "energy access"),
    ("Intensity", "energy intensity"),
    ("Renewables", "renewables"),
    ("Fossil", "fossil fuels"),
    ("LowCarbon", "low-carbon sources"),
    ("Storage", "storage"),
    ("EV", "electric vehicles"),
    ("Batteries", "batteries"),
    ("Grid", "grid capacity"),
    ("LNG", "liquefied natural gas"),
    ("Refining", "refining"),
    ("Petchem", "petrochemicals"),
    ("Aviation", "aviation fuel"),
    ("Shipping", "shipping fuel"),
    ("Methane", "methane"),
    ("Flaring", "gas flaring"),
    ("Minerals", "critical minerals"),
    ("Efficiency", "efficiency measures"),
    ("Subsidies", "fossil fuel subsidies"),
    ("Prices", "end-user prices"),
    ("Peak", "peak load"),
    ("Offgrid", "off-grid systems"),
    ("Cooking", "clean cooking"),
    ("Cooling", "space cooling"),
    ("Heating", "space heating"),
    ("Lighting", "lighting"),
    ("Appliances", "appliances"),
    ("DataCentres", "data centres"),
];

/// First year of every table's series.
pub const FIRST_YEAR: i32 = 2000;
/// Last (projection) year.
pub const LAST_YEAR: i32 = 2040;

/// Builds the attribute pool: years first, then aggregate columns, truncated
/// to `n_attributes`.
pub fn attribute_pool(n_attributes: usize) -> Vec<String> {
    let mut attrs: Vec<String> = (FIRST_YEAR..=LAST_YEAR).map(|y| y.to_string()).collect();
    attrs.push("Total".to_string());
    for scenario in ["NPS", "SDS", "CPS"] {
        for year in [2025, 2030, 2035, 2040] {
            attrs.push(format!("{scenario}{year}"));
        }
    }
    for extra in [
        "Delta2025",
        "Delta2030",
        "Delta2035",
        "Delta2040",
        "Low2030",
        "High2030",
        "Low2040",
        "High2040",
        "Min",
        "Max",
        "Avg",
        "Median",
        "Q1",
        "Q2",
        "Q3",
        "Q4",
        "Target2030",
        "Target2040",
        "Base2000",
        "Base2010",
        "Peak",
        "Trough",
        "Hist",
        "Proj",
        "Rev1",
        "Rev2",
        "Rev3",
        "Rev4",
        "Est2018",
        "Est2019",
        "Prelim2018",
        "Prelim2019",
        "Final2017",
    ] {
        attrs.push(extra.to_string());
    }
    attrs.truncate(n_attributes);
    attrs
}

/// Builds the key pool (`prefix+measure` codes), truncated to `n_keys`.
pub fn key_pool(n_keys: usize) -> Vec<String> {
    let mut keys = Vec::with_capacity(KEY_PREFIXES.len() * KEY_MEASURES.len());
    for (prefix, _) in KEY_PREFIXES {
        for (measure, _) in KEY_MEASURES {
            keys.push(format!("{prefix}{measure}"));
        }
    }
    keys.truncate(n_keys);
    keys
}

/// Human phrase for an indicator key (`PGElecDemand` → "power generation
/// electricity demand"). Used when rendering claim text.
pub fn key_phrase(key: &str) -> String {
    for (prefix, prefix_phrase) in KEY_PREFIXES {
        if let Some(rest) = key.strip_prefix(prefix) {
            if let Some((_, measure_phrase)) = KEY_MEASURES.iter().find(|(m, _)| *m == rest) {
                return format!("{prefix_phrase} {measure_phrase}");
            }
        }
    }
    key.to_string()
}

/// Human phrase for a region (`UnitedStates` → "United States").
pub fn region_phrase(region: &str) -> String {
    let mut out = String::with_capacity(region.len() + 4);
    for (i, c) in region.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push(' ');
        }
        out.push(c);
    }
    out
}

/// Human phrase for a topic (`WindCapacity` → "wind capacity").
pub fn topic_phrase(topic: &str) -> String {
    region_phrase(topic).to_lowercase()
}

/// `(topic, region)` of relation number `i`.
pub fn relation_parts(i: usize) -> (&'static str, &'static str) {
    let (topic, _) = TOPICS[(i / REGIONS.len()) % TOPICS.len()];
    let region = REGIONS[i % REGIONS.len()];
    (topic, region)
}

/// Unit of a topic.
pub fn topic_unit(topic: &str) -> &'static str {
    TOPICS
        .iter()
        .find(|(t, _)| *t == topic)
        .map_or("units", |(_, u)| u)
}

/// Relation name of relation number `i`: `"{topic}_{region}"`.
pub fn relation_name(i: usize) -> String {
    let (topic, region) = relation_parts(i);
    format!("{topic}_{region}")
}

/// Generates the full catalog.
pub fn generate_catalog(config: &CorpusConfig) -> Catalog {
    let keys = key_pool(config.n_keys);
    let attrs = attribute_pool(config.n_attributes);
    let years: Vec<&String> = attrs.iter().filter(|a| a.parse::<i32>().is_ok()).collect();
    let extras: Vec<&String> = attrs.iter().filter(|a| a.parse::<i32>().is_err()).collect();

    let mut catalog = Catalog::new();
    let max_extras = extras.len().min(6);
    // tables with the same extras count share one schema
    let mut schemas: Vec<Option<Arc<Schema>>> = vec![None; max_extras + 1];
    for i in 0..config.n_relations {
        let name = relation_name(i);
        let mut rng = SmallRng::seed_from_u64(config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
        // every table carries all year columns plus a few extras
        let n_extras = rng.gen_range(0..=max_extras);
        let schema = schemas[n_extras].get_or_insert_with(|| {
            let mut columns: Vec<&str> = years.iter().map(|s| s.as_str()).collect();
            columns.extend(extras.iter().take(n_extras).map(|s| s.as_str()));
            Arc::new(Schema::keyed("Index", &columns))
        });
        let mut table = Table::new(&name, Arc::clone(schema));

        // a subset of the key pool lives in this table
        let n_table_keys = rng.gen_range(8..=20.min(keys.len()));
        let start = rng.gen_range(0..keys.len());
        table.reserve(n_table_keys);
        for k in 0..n_table_keys {
            let key = &keys[(start + k * 7) % keys.len()];
            if table.contains_key(key) {
                continue;
            }
            let row = generate_series(&mut rng, years.len(), n_extras);
            let mut cells: Vec<Value> = Vec::with_capacity(years.len() + n_extras + 1);
            cells.push(Value::Str(key.clone()));
            cells.extend(row.into_iter().map(Value::Float));
            table
                .push_row(cells)
                .expect("generated row is schema-valid");
        }
        catalog.add(table).expect("relation names are unique");
    }
    catalog
}

/// A smooth exponential-drift series over the year columns, plus extras
/// derived from it (Total = sum, others = scaled aggregates).
fn generate_series(rng: &mut SmallRng, n_years: usize, n_extras: usize) -> Vec<f64> {
    let base = 10f64.powf(rng.gen_range(0.5..4.5)); // 3 .. 30 000
    let trend = rng.gen_range(-0.03..0.06); // -3% .. +6% per year
    let mut value = base;
    let mut series = Vec::with_capacity(n_years + n_extras);
    for _ in 0..n_years {
        series.push((value * 100.0).round() / 100.0);
        let wobble = rng.gen_range(-0.01..0.01);
        value *= 1.0 + trend + wobble;
    }
    let total: f64 = series.iter().sum();
    for e in 0..n_extras {
        // deterministic-but-varied aggregates of the series
        let scaled = match e {
            0 => total,
            _ => total * rng.gen_range(0.05..0.95),
        };
        series.push((scaled * 100.0).round() / 100.0);
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_have_requested_sizes() {
        assert_eq!(attribute_pool(87).len(), 87);
        assert_eq!(key_pool(830).len(), 830);
        assert!(KEY_PREFIXES.len() * KEY_MEASURES.len() >= 830);
        assert!(TOPICS.len() * REGIONS.len() >= 1791);
    }

    #[test]
    fn phrases_are_readable() {
        assert_eq!(
            key_phrase("PGElecDemand"),
            "power generation electricity demand"
        );
        assert_eq!(key_phrase("CAPWind"), "installed capacity of wind power");
        assert_eq!(region_phrase("UnitedStates"), "United States");
        assert_eq!(topic_phrase("WindCapacity"), "wind capacity");
        assert_eq!(
            key_phrase("Unknown123"),
            "Unknown123",
            "unknown keys pass through"
        );
    }

    #[test]
    fn catalog_generation_small() {
        let config = CorpusConfig::small();
        let catalog = generate_catalog(&config);
        assert_eq!(catalog.len(), config.n_relations);
        // every table has year columns and at least 8 keys
        for table in catalog.tables() {
            assert!(table.has_attribute("2017"));
            assert!(
                table.row_count() >= 8,
                "{} has {} rows",
                table.name(),
                table.row_count()
            );
        }
    }

    #[test]
    fn catalog_is_deterministic() {
        let config = CorpusConfig::small();
        let a = generate_catalog(&config);
        let b = generate_catalog(&config);
        for (ta, tb) in a.tables().zip(b.tables()) {
            assert_eq!(ta.name(), tb.name());
            assert_eq!(ta.row_count(), tb.row_count());
            let key = ta.keys().next().unwrap().to_string();
            assert_eq!(
                ta.get(&key, "2017").unwrap().as_f64(),
                tb.get(&key, "2017").unwrap().as_f64()
            );
        }
    }

    #[test]
    fn series_are_positive_and_smooth() {
        let config = CorpusConfig::small();
        let catalog = generate_catalog(&config);
        let table = catalog.tables().next().unwrap();
        let key = table.keys().next().unwrap().to_string();
        let mut prev: Option<f64> = None;
        for year in 2000..=2040 {
            let v = table
                .get(&key, &year.to_string())
                .unwrap()
                .as_f64()
                .unwrap();
            assert!(v > 0.0);
            if let Some(p) = prev {
                let ratio = v / p;
                assert!(
                    (0.90..=1.10).contains(&ratio),
                    "year-over-year jump too big: {ratio}"
                );
            }
            prev = Some(v);
        }
    }

    #[test]
    fn relation_names_unique_at_paper_scale() {
        let mut names: Vec<String> = (0..1791).map(relation_name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
