//! The Configuration and Description sections of the demo workflow
//! (Figures 2–3): the grid shape a session is opened with and the raw
//! constraint grid it parses. Sessions themselves are
//! [`crate::service::SessionHandle`]s handed out by a
//! [`crate::service::DiscoveryService`].

use crate::config::DiscoveryConfig;
use crate::constraints::TargetConstraints;
use crate::error::Error;
use prism_lang::UdfRegistry;

/// The Configuration section (Figure 2 / Section 3 step 1).
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Number of columns in the target schema.
    pub target_columns: usize,
    /// Number of sample-constraint rows.
    pub sample_rows: usize,
    /// Whether the Description section offers a metadata row.
    pub with_metadata: bool,
    /// Engine configuration (time budget, scheduler, …).
    pub discovery: DiscoveryConfig,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            target_columns: 3,
            sample_rows: 1,
            with_metadata: true,
            discovery: DiscoveryConfig::default(),
        }
    }
}

/// The Description grid of one session, as raw text: sample cells plus the
/// optional metadata row, with the parse step that turns them into
/// [`TargetConstraints`].
pub(crate) struct ConstraintGrid {
    target_columns: usize,
    sample_rows: usize,
    with_metadata: bool,
    grid: Vec<Vec<Option<String>>>,
    metadata: Vec<Option<String>>,
}

impl ConstraintGrid {
    pub(crate) fn new(config: &SessionConfig) -> ConstraintGrid {
        ConstraintGrid {
            target_columns: config.target_columns,
            sample_rows: config.sample_rows,
            with_metadata: config.with_metadata,
            grid: vec![vec![None; config.target_columns]; config.sample_rows],
            metadata: vec![None; config.target_columns],
        }
    }

    pub(crate) fn set_sample_cell(
        &mut self,
        row: usize,
        column: usize,
        text: String,
    ) -> Result<(), Error> {
        if row >= self.sample_rows || column >= self.target_columns {
            return Err(Error::OutOfRange { row, column });
        }
        self.grid[row][column] = if text.trim().is_empty() {
            None
        } else {
            Some(text)
        };
        Ok(())
    }

    pub(crate) fn set_metadata_cell(&mut self, column: usize, text: String) -> Result<(), Error> {
        if !self.with_metadata {
            return Err(Error::MetadataDisabled);
        }
        if column >= self.target_columns {
            return Err(Error::OutOfRange { row: 0, column });
        }
        self.metadata[column] = if text.trim().is_empty() {
            None
        } else {
            Some(text)
        };
        Ok(())
    }

    /// Parse the grid into constraints, resolving `@name` predicates
    /// against `udfs`.
    pub(crate) fn parse(&self, udfs: &UdfRegistry) -> Result<TargetConstraints, Error> {
        let constraints =
            TargetConstraints::parse(self.target_columns, &self.grid, &self.metadata)?
                .with_udfs(udfs.clone());
        let missing = constraints.missing_udfs();
        if !missing.is_empty() {
            return Err(Error::UnknownUdfs(missing));
        }
        Ok(constraints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::ConstraintError;
    use crate::explain::ConstraintPick;
    use crate::service::{DiscoveryService, SessionHandle};
    use prism_datasets::mondial;
    use std::sync::Arc;

    /// Step 1: a Mondial service and a session configured by `config`.
    fn open(config: SessionConfig) -> SessionHandle {
        DiscoveryService::new(Arc::new(mondial(42, 1)), DiscoveryConfig::default())
            .open_session(config)
    }

    /// The Section 3 walk-through as a session script, down to picking a
    /// single constraint to draw (step 4.3).
    #[test]
    fn section_3_walkthrough() {
        let mut session = open(SessionConfig::default());
        assert_eq!(session.database_name(), "Mondial");
        session
            .set_sample_cell(0, 0, "California || Nevada")
            .unwrap();
        session.set_sample_cell(0, 1, "Lake Tahoe").unwrap();
        session
            .set_metadata_cell(2, "DataType=='decimal' AND MinValue>='0'")
            .unwrap();
        let n = session.start_searching().unwrap().queries.len();
        let want = "SELECT geo_lake.Province, Lake.Name, Lake.Area \
                    FROM Lake, geo_lake WHERE geo_lake.Lake = Lake.Name";
        let idx = (0..n)
            .find(|&i| session.result_sql(i).unwrap() == want)
            .expect("desired query listed");
        let pick = ConstraintPick::Value {
            sample: 0,
            column: 1,
        };
        let one = session.explain_result(idx, Some(&[pick])).unwrap();
        assert_eq!(one.relations.len(), 2);
        assert_eq!(one.constraints.len(), 1);
        assert!(one.constraints[0].label.contains("Lake Tahoe"));
    }

    #[test]
    fn grid_bounds_are_enforced() {
        let mut session = open(SessionConfig::default());
        assert!(matches!(
            session.set_sample_cell(5, 0, "x"),
            Err(Error::OutOfRange { .. })
        ));
        assert!(matches!(
            session.set_metadata_cell(7, "DataType=='int'"),
            Err(Error::OutOfRange { .. })
        ));
    }

    #[test]
    fn metadata_can_be_disabled() {
        let mut session = open(SessionConfig {
            with_metadata: false,
            ..SessionConfig::default()
        });
        assert!(matches!(
            session.set_metadata_cell(0, "DataType=='int'"),
            Err(Error::MetadataDisabled)
        ));
    }

    #[test]
    fn searching_without_constraints_fails_cleanly() {
        let mut session = open(SessionConfig::default());
        assert!(matches!(
            session.start_searching(),
            Err(Error::Constraint(_))
        ));
        assert!(session.result().is_none());
        assert!(matches!(session.result_sql(0), Err(Error::NoSearchRun)));
    }

    #[test]
    fn clearing_a_cell_removes_the_constraint() {
        let mut session = open(SessionConfig::default());
        session.set_sample_cell(0, 0, "Lake Tahoe").unwrap();
        session.set_sample_cell(0, 0, "   ").unwrap();
        assert!(matches!(
            session.start_searching(),
            Err(Error::Constraint(ConstraintError::Empty))
        ));
    }

    #[test]
    fn bad_constraint_text_reports_cell() {
        let mut session = open(SessionConfig::default());
        session.set_sample_cell(0, 1, "a ||").unwrap();
        match session.start_searching() {
            Err(Error::Constraint(ConstraintError::Parse { row, column, .. })) => {
                assert_eq!(row, Some(0));
                assert_eq!(column, 1);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
