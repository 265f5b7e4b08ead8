//! Names each item of this crate that the repo benchmark (`benchmark/src`, not
//! built by tier-1) uses, so narrowing one fails `cargo test` here.

use ftdircmp_serve::job::JobSpec;
use ftdircmp_serve::json::Json;
use ftdircmp_serve::queue::Queue;
use ftdircmp_serve::runner::{execute_job, OUTCOME_OK};
use ftdircmp_serve::store::Store;

#[test]
fn benchmark_api_is_public() {
    let job = Json::obj(vec![
        ("kind", Json::str("campaign")),
        ("specs", Json::Arr(vec![Json::str("barnes:ops=1")])),
        (
            "configs",
            Json::Arr(vec![Json::obj(vec![
                ("protocol", Json::str("ftdircmp")),
                ("fault_rate", Json::Num(0.0)),
            ])]),
        ),
        ("seeds", Json::num_u64(1)),
    ]);
    let spec = JobSpec::from_json(&job).unwrap();
    let text = spec.to_json().to_string();
    let back = Json::parse(&text).unwrap();
    assert_eq!(back.get("kind").and_then(Json::as_str), Some("campaign"));
    let _ = (
        Json::as_f64,
        Json::as_u64,
        Json::as_arr,
        Json::Bool(true),
        OUTCOME_OK,
    );

    let _ = |store: Store| -> std::io::Result<()> {
        store.append_unit_record("j000001", &back)?;
        store.write_summary("j000001", &text)?;
        let _: Option<String> = store.read_summary("j000001")?;
        let _ = store.journal_path();
        execute_job(&store, "j000001", &spec, 1, &|_, _| {})?;
        let queue = Queue::open(store.clone(), 8)?;
        let _ = queue.submit(spec.clone());
        if let Some(taken) = queue.take_next() {
            queue.mark_done(&taken.id, OUTCOME_OK);
        }
        let _ = queue.list().len();
        Ok(())
    };
    let _ = Store::open;
}
