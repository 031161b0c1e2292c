//! Every figure of the table at `Size::Smoke`: each check must hold. One
//! test per figure, so a failure names its figure.

use cc_bench::{Size, FIGURES};

fn gate(id: &str) {
    let fig = FIGURES.iter().find(|f| f.id == id).expect("figure in the table");
    let outcome = (fig.run)(Size::Smoke);
    assert!(outcome.passed(), "{id} ({}) at smoke size:\n{outcome}", fig.title);
}

macro_rules! figure_tests {
    ($($id:ident),* $(,)?) => {
        $(
            #[test]
            fn $id() {
                gate(stringify!($id));
            }
        )*

        #[test]
        fn every_figure_has_a_test() {
            let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
            assert_eq!(ids, [$(stringify!($id)),*]);
        }
    };
}

figure_tests!(
    fig4,
    fig5,
    fig6a,
    fig6b,
    fig6c,
    fig7,
    fig8,
    fig11,
    fig12,
    ex14,
    appendix_l,
    ablations,
    scalability,
);
