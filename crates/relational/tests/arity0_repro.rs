#[test]
fn frozen_arity0_wcoj() {
    use cqcount_relational::{store, wcoj_join, Database, WcojInput};
    let mut db = Database::new();
    db.add_fact("p", &[]); // nonempty zero-arity relation (true proposition)
    db.add_fact("e", &["a", "b"]);
    let loaded = store::load_store_bytes(&store::encode_store(&db, 0, 0)).unwrap();
    let p = loaded.db.relation("p").unwrap();
    let e = loaded.db.relation("e").unwrap();
    assert_eq!(p.len(), 1, "p holds the empty tuple");
    assert!(p.is_frozen());
    let cols_p: [u32; 0] = [];
    let cols_e = [0u32, 1];
    let views = [
        WcojInput::from_frozen(p, &cols_p).unwrap(),
        WcojInput::from_frozen(e, &cols_e).unwrap(),
    ];
    let out = wcoj_join(&views);
    // p is true (len 1), so the join should equal e: 1 row.
    assert_eq!(
        out.rows().len(),
        1,
        "nonempty nullary atom must be a no-op filter, got empty join"
    );
}
