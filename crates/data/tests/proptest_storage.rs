//! Property tests for the storage layer: CSV round trips, index
//! consistency on arbitrary tables, and every table accessor against a
//! plain row model under random inserts, valid and invalid.

use proptest::prelude::*;
use scrutinizer_data::{csv, Column, DataError, DataType, Schema, Table, TableBuilder, Value};
use std::borrow::Borrow;

fn table_strategy() -> impl Strategy<Value = Table> {
    // distinct simple keys, 1-6 attribute columns, small float values
    (
        prop::collection::hash_set("[A-Za-z][A-Za-z0-9_]{0,10}", 1..12),
        1usize..6,
    )
        .prop_flat_map(|(keys, n_attrs)| {
            let keys: Vec<String> = keys.into_iter().collect();
            let n_rows = keys.len();
            prop::collection::vec(
                prop::collection::vec(-1.0e6f64..1.0e6, n_attrs..=n_attrs),
                n_rows..=n_rows,
            )
            .prop_map(move |rows| {
                let attrs: Vec<String> = (0..n_attrs).map(|i| format!("{}", 2000 + i)).collect();
                let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
                let mut builder = TableBuilder::new("T", "Index", &attr_refs);
                for (key, row) in keys.iter().zip(&rows) {
                    // round to 2 decimals: CSV text is the storage format
                    let rounded: Vec<f64> =
                        row.iter().map(|v| (v * 100.0).round() / 100.0).collect();
                    builder = builder.row(key, &rounded).expect("unique keys");
                }
                builder.build()
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csv_round_trip_preserves_cells(table in table_strategy()) {
        let mut buffer = Vec::new();
        csv::write_table(&table, &mut buffer).unwrap();
        let back = csv::read_table("T", buffer.as_slice()).unwrap();
        prop_assert_eq!(back.row_count(), table.row_count());
        for key in table.keys() {
            for attr in table.schema().attribute_names() {
                let a = table.get(key, attr).unwrap().as_f64().unwrap();
                let b = back.get(key, attr).unwrap().as_f64().unwrap();
                prop_assert!((a - b).abs() < 1e-9, "{}.{}: {} vs {}", key, attr, a, b);
            }
        }
    }

    #[test]
    fn index_finds_every_key_and_nothing_else(table in table_strategy()) {
        for key in table.keys() {
            prop_assert!(table.contains_key(key));
        }
        prop_assert!(!table.contains_key("definitely-not-a-key-!!"));
    }
}

/// One `push_row` call of a generated sequence: what kind of row to build
/// (`0..=6` well-formed, `7` duplicate key, `8` wrong arity, `9` wrong
/// type, `10` null key, `11` non-string key), a key choice, and one seed
/// per cell.
type Step = (u8, usize, Vec<(u8, f64, i64)>, String);

fn steps_strategy() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            0u8..12,
            0usize..10,
            prop::collection::vec((0u8..10, -1.0e6f64..1.0e6, -(1i64 << 60)..(1i64 << 60)), 8),
            "[a-z]{0,6}",
        ),
        0..40,
    )
}

/// A float-column cell: null, the float edge cases, an int or a float.
fn float_cell((kind, f, i): (u8, f64, i64)) -> Value {
    match kind {
        0 => Value::Null,
        1 => Value::Float(f64::NAN),
        2 => Value::Float(-f64::NAN),
        3 => Value::Float(-0.0),
        4 => Value::Float(f64::INFINITY),
        5 => Value::Float(f64::NEG_INFINITY),
        6 => Value::Int(i),
        _ => Value::Float(f),
    }
}

/// Equality with floats compared by bits, so NaN equals itself and
/// `-0.0` differs from `0.0`.
fn same(stored: impl Borrow<Value>, model: &Value) -> bool {
    match (stored.borrow(), model) {
        (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
        (a, b) => a == b,
    }
}

fn same_f64(stored: Option<f64>, model: Option<f64>) -> bool {
    stored.map(f64::to_bits) == model.map(f64::to_bits)
}

/// Checks every read accessor of `table` against the row model.
fn assert_matches_model(table: &Table, model: &[Vec<Value>], key_col: usize, pool: &[String]) {
    let schema = table.schema().clone();
    assert_eq!(table.row_count(), model.len());
    let keys: Vec<&str> = model.iter().map(|r| r[key_col].as_str().unwrap()).collect();
    assert_eq!(table.keys().collect::<Vec<_>>(), keys);
    for (position, cells) in model.iter().enumerate() {
        let key = keys[position];
        assert!(table.contains_key(key));
        assert_eq!(table.key_row(key), Some(position as u32));
        assert_eq!(table.key_at(position as u32), Some(key));
        let row = table.row(position).expect("row in range");
        assert_eq!(row.len(), cells.len());
        for (col, (column, cell)) in schema.columns().iter().zip(cells).enumerate() {
            assert!(
                same(&row[col], cell),
                "row {position} col {col}: {:?} vs {cell:?}",
                row[col]
            );
            let got = table.get(key, &column.name).expect("cell in range");
            assert!(same(got, cell), "get({key}, {}) vs {cell:?}", column.name);
            assert!(
                same_f64(table.numeric_view(col).get(position), cell.as_f64()),
                "numeric_view({col}).get({position}) vs {cell:?}"
            );
        }
        assert!(matches!(
            table.get(key, "no-such-column"),
            Err(DataError::UnknownColumn { .. })
        ));
    }
    for col in 0..schema.arity() {
        assert_eq!(table.numeric_view(col).get(model.len()), None);
        assert_eq!(
            table.has_attribute(&schema.columns()[col].name),
            col != key_col
        );
    }
    assert!(table.row(model.len()).is_none());
    assert_eq!(table.key_at(model.len() as u32), None);
    for key in pool.iter().filter(|k| !keys.contains(&k.as_str())) {
        assert!(!table.contains_key(key));
        assert_eq!(table.key_row(key), None);
        assert!(matches!(
            table.get(key, schema.key_name()),
            Err(DataError::UnknownKey(_))
        ));
    }
}

/// Plays `steps` against `table`, building each row from `cell_for`
/// (schema position, seed, text) and checking after every call that an
/// accepted row extends the model and a rejected row changes nothing.
fn drive(
    mut table: Table,
    steps: &[Step],
    cell_for: impl Fn(usize, (u8, f64, i64), &str) -> Value,
    wrong_type: impl Fn(usize) -> (usize, Value),
) {
    let key_col = table.schema().key_index();
    let arity = table.schema().arity();
    let pool: Vec<String> = (0..10).map(|i| format!("k{i}")).collect();
    let mut model: Vec<Vec<Value>> = Vec::new();
    for (kind, key_choice, seeds, text) in steps {
        let mut key = pool[*key_choice].clone();
        if *kind == 7 && !model.is_empty() {
            key = model[key_choice % model.len()][key_col]
                .as_str()
                .unwrap()
                .to_string();
        }
        let mut row: Vec<Value> = (0..arity)
            .map(|col| {
                if col == key_col {
                    Value::Str(key.clone())
                } else {
                    cell_for(col, seeds[col], text)
                }
            })
            .collect();
        let mut valid = true;
        match kind {
            8 => {
                valid = false;
                if key_choice % 2 == 0 {
                    row.push(Value::Null);
                } else {
                    row.truncate(arity - 1);
                }
            }
            9 => {
                valid = false;
                let (col, value) = wrong_type(*key_choice);
                row[col] = value;
            }
            10 => {
                valid = false;
                row[key_col] = Value::Null;
            }
            11 => {
                valid = false;
                row[key_col] = Value::Int(*key_choice as i64);
            }
            _ => {}
        }
        let duplicate = model
            .iter()
            .any(|r| r[key_col].as_str() == Some(key.as_str()));
        let result = table.push_row(row.clone());
        if valid && !duplicate {
            assert!(result.is_ok(), "valid row rejected: {row:?}: {result:?}");
            model.push(row);
        } else {
            assert!(result.is_err(), "invalid row accepted: {row:?}");
            if valid {
                assert!(matches!(result, Err(DataError::DuplicateKey(_))));
            }
        }
        assert_matches_model(&table, &model, key_col, &pool);
    }
}

fn keyed_table(n_attrs: usize) -> Table {
    let attrs: Vec<String> = (0..n_attrs).map(|i| format!("{}", 2000 + i)).collect();
    let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
    Table::new("T", Schema::keyed("Index", &attr_refs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn keyed_tables_match_a_row_model(n_attrs in 1usize..=6, steps in steps_strategy()) {
        drive(
            keyed_table(n_attrs),
            &steps,
            |_, seed, _| float_cell(seed),
            |choice| (1 + choice % n_attrs, Value::Str("text".into())),
        );
    }

    #[test]
    fn mixed_type_tables_match_a_row_model(steps in steps_strategy()) {
        // key in the middle; an Int and a Str attribute beside a Float one
        let schema = Schema::new(
            vec![
                Column::new("n", DataType::Int),
                Column::new("Index", DataType::Str),
                Column::new("label", DataType::Str),
                Column::new("x", DataType::Float),
            ],
            1,
        );
        drive(
            Table::new("M", schema),
            &steps,
            |col, (kind, f, i), text| match (col, kind) {
                (_, 0) => Value::Null,
                (0, _) => Value::Int(i),
                (2, _) => Value::Str(text.to_string()),
                _ => float_cell((kind, f, i)),
            },
            |choice| match choice % 3 {
                0 => (0, Value::Float(1.5)),
                1 => (2, Value::Int(3)),
                _ => (3, Value::Str("text".into())),
            },
        );
    }
}
