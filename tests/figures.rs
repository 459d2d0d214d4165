//! The figure table behind `pptlab figure`: every row runs, the job count
//! never shows in the output, and the table and `results/` name the same
//! set of figures.

use ppt::figures::{find, Figure, FigureOpts, FIGURES};

fn run(fig: &Figure, flows: usize, jobs: usize) -> String {
    let mut out = Vec::new();
    fig.run(&FigureOpts { flows: Some(flows), seed: 42, jobs }, &mut out)
        .unwrap_or_else(|e| panic!("{} failed at --flows {flows} --jobs {jobs}: {e}", fig.id));
    String::from_utf8(out).expect("figures print UTF-8")
}

/// Every figure runs at a tiny scale, prints its banner and at least one
/// line under it, and prints the same bytes on one worker and on two.
/// Fig 19 is the exception to the second half: its columns are wall-clock.
fn runs_and_ignores_the_job_count(figures: impl Iterator<Item = &'static Figure>) {
    for fig in figures {
        let serial = run(fig, 8, 1);
        let lines: Vec<&str> = serial.lines().collect();
        assert!(
            lines.len() >= 6 && lines[0].starts_with("====") && lines[2].starts_with("setup: "),
            "{}: no banner or no rows:\n{serial}",
            fig.id
        );
        if fig.id != "fig19_cpu_overhead" {
            assert_eq!(serial, run(fig, 8, 2), "{}: --jobs 2 changed the output", fig.id);
        }
    }
}

// The table in two halves, so the suite's two test threads share the work.
#[test]
fn even_rows_run_and_ignore_the_job_count() {
    runs_and_ignores_the_job_count(FIGURES.iter().step_by(2));
}

#[test]
fn odd_rows_run_and_ignore_the_job_count() {
    runs_and_ignores_the_job_count(FIGURES.iter().skip(1).step_by(2));
}

/// With one flow no utilisation sample survives the 2 ms warm-up / 5 %
/// busy filter; the busy-period statistics print `n/a` (the figure
/// binaries indexed the empty vector and panicked).
#[test]
fn utilisation_figures_print_na_for_an_empty_busy_set() {
    for id in ["fig01_dctcp_util", "fig20_ppt_util"] {
        let text = run(find(id).expect("id is in the table"), 1, 1);
        assert!(text.contains("n/a"), "{id}: expected n/a statistics:\n{text}");
    }
}

/// A figure cannot exist without a recorded result, nor a result without
/// a figure: the table's ids are unique and are exactly the stems of
/// `results/*.txt`.
#[test]
fn table_ids_are_the_results_file_stems() {
    let mut ids: Vec<String> = FIGURES.iter().map(|f| f.id.to_string()).collect();
    ids.sort();
    let listed = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), listed, "two figures share an id");

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut stems: Vec<String> = std::fs::read_dir(dir)
        .expect("results/ exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .map(|path| path.file_stem().expect("has a stem").to_string_lossy().into_owned())
        .collect();
    stems.sort();
    assert_eq!(ids, stems, "figure table and results/*.txt disagree");
}
