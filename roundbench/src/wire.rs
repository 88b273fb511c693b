//! The inputs one run measures, and the byte format that carries them from
//! the generating process to the measuring process.
//!
//! Every string is length-prefixed (`<len>:<bytes>`), every number ends in
//! `;`, and an absent cell is `~`, so CSV text and constraint strings pass
//! through verbatim whatever characters they hold.

use std::fmt;

/// One constraint grid.
#[derive(Debug, Clone)]
pub struct Task {
    /// Tasks sharing a chain are one ground truth at successive
    /// resolutions, run in order on one session (the `service` workload);
    /// elsewhere every task is its own chain.
    pub chain: usize,
    pub level: String,
    pub columns: usize,
    pub samples: Vec<Vec<Option<String>>>,
    pub metadata: Vec<Option<String>>,
}

/// A database as CSV text plus its foreign keys, and the tasks to run.
#[derive(Debug, Clone, Default)]
pub struct Inputs {
    pub db_name: String,
    /// `(table name, CSV text with a header row)`, in catalog order.
    pub tables: Vec<(String, String)>,
    /// `[from table, from column, to table, to column]`.
    pub foreign_keys: Vec<[String; 4]>,
    pub tasks: Vec<Task>,
}

impl Inputs {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer(Vec::new());
        w.str(&self.db_name);
        w.num(self.tables.len());
        for (name, csv) in &self.tables {
            w.str(name);
            w.str(csv);
        }
        w.num(self.foreign_keys.len());
        for fk in &self.foreign_keys {
            fk.iter().for_each(|s| w.str(s));
        }
        w.num(self.tasks.len());
        for t in &self.tasks {
            w.num(t.chain);
            w.str(&t.level);
            w.num(t.columns);
            w.num(t.samples.len());
            for row in &t.samples {
                row.iter().for_each(|c| w.opt(c.as_deref()));
            }
            t.metadata.iter().for_each(|c| w.opt(c.as_deref()));
        }
        w.0
    }

    pub fn decode(bytes: &[u8]) -> Result<Inputs, WireError> {
        let mut r = Reader { bytes, pos: 0 };
        let db_name = r.str()?;
        let tables = (0..r.num()?)
            .map(|_| Ok((r.str()?, r.str()?)))
            .collect::<Result<_, WireError>>()?;
        let foreign_keys = (0..r.num()?)
            .map(|_| Ok([r.str()?, r.str()?, r.str()?, r.str()?]))
            .collect::<Result<_, WireError>>()?;
        let mut tasks = Vec::new();
        for _ in 0..r.num()? {
            let chain = r.num()?;
            let level = r.str()?;
            let columns = r.num()?;
            let rows = r.num()?;
            let samples = (0..rows)
                .map(|_| (0..columns).map(|_| r.opt()).collect())
                .collect::<Result<_, WireError>>()?;
            let metadata = (0..columns).map(|_| r.opt()).collect::<Result<_, _>>()?;
            tasks.push(Task {
                chain,
                level,
                columns,
                samples,
                metadata,
            });
        }
        if r.pos != bytes.len() {
            return Err(WireError(r.pos));
        }
        Ok(Inputs {
            db_name,
            tables,
            foreign_keys,
            tasks,
        })
    }
}

/// Malformed input at this byte offset.
#[derive(Debug)]
pub struct WireError(usize);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed benchmark inputs at byte {}", self.0)
    }
}

struct Writer(Vec<u8>);

impl Writer {
    fn num(&mut self, n: usize) {
        self.0.extend_from_slice(format!("{n};").as_bytes());
    }

    fn str(&mut self, s: &str) {
        self.0.extend_from_slice(format!("{}:", s.len()).as_bytes());
        self.0.extend_from_slice(s.as_bytes());
    }

    fn opt(&mut self, s: Option<&str>) {
        match s {
            Some(s) => self.str(s),
            None => self.0.push(b'~'),
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn digits_until(&mut self, end: u8) -> Result<usize, WireError> {
        let start = self.pos;
        let len = self.bytes[start..]
            .iter()
            .position(|&b| b == end)
            .ok_or(WireError(start))?;
        let text =
            std::str::from_utf8(&self.bytes[start..start + len]).map_err(|_| WireError(start))?;
        self.pos = start + len + 1;
        text.parse().map_err(|_| WireError(start))
    }

    fn num(&mut self) -> Result<usize, WireError> {
        self.digits_until(b';')
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.digits_until(b':')?;
        let start = self.pos;
        let end = start.checked_add(len).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or(WireError(start))?;
        self.pos = end;
        String::from_utf8(self.bytes[start..end].to_vec()).map_err(|_| WireError(start))
    }

    fn opt(&mut self) -> Result<Option<String>, WireError> {
        if self.bytes.get(self.pos) == Some(&b'~') {
            self.pos += 1;
            return Ok(None);
        }
        self.str().map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_round_trip() {
        let inputs = Inputs {
            db_name: "Mondial".into(),
            tables: vec![("Lake".into(), "Name,Area\n\"a,b\",1.5\n".into())],
            foreign_keys: vec![["A".into(), "x".into(), "B".into(), "y".into()]],
            tasks: vec![Task {
                chain: 3,
                level: "range".into(),
                columns: 2,
                samples: vec![vec![Some("~1:;".into()), None]],
                metadata: vec![None, Some("DataType=='int'".into())],
            }],
        };
        let back = Inputs::decode(&inputs.encode()).unwrap();
        assert_eq!(back.tables, inputs.tables);
        assert_eq!(back.foreign_keys, inputs.foreign_keys);
        assert_eq!(back.tasks[0].samples, inputs.tasks[0].samples);
        assert_eq!(back.tasks[0].metadata, inputs.tasks[0].metadata);
        assert!(Inputs::decode(&inputs.encode()[..10]).is_err());
    }
}
