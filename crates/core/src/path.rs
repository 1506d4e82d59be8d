//! Absolute-path parsing and validation.
//!
//! HopsFS paths are `/`-separated absolute paths. Components may not be
//! empty, `"."`, or `".."` (the benchmark workloads never produce them, and
//! HDFS normalizes them away client-side).

use crate::types::FsError;
use std::sync::Arc;

/// A validated, normalized absolute path.
///
/// The normalized text (`"/"` for root, else `"/a/b"`) lives in one shared
/// allocation, so cloning a path — and every op that carries one — is a
/// reference-count bump.
///
/// # Examples
///
/// ```
/// use hopsfs::path::FsPath;
///
/// let p = FsPath::parse("/user/spotify/playlists").unwrap();
/// assert_eq!(p.components().collect::<Vec<_>>(), ["user", "spotify", "playlists"]);
/// assert_eq!(p.name(), Some("playlists"));
/// assert_eq!(p.parent().unwrap().to_string(), "/user/spotify");
/// assert!(FsPath::parse("relative/path").is_err());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct FsPath {
    text: Arc<str>,
}

impl FsPath {
    /// The root path `/`.
    pub fn root() -> Self {
        FsPath { text: Arc::from("/") }
    }

    /// Parses and validates an absolute path.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Invalid`] for relative paths, empty components,
    /// `.`/`..`, or components longer than 255 bytes.
    pub fn parse(s: &str) -> Result<Self, FsError> {
        if !s.starts_with('/') {
            return Err(FsError::Invalid);
        }
        let mut normalized = true;
        for part in s.split('/').skip(1) {
            if part.is_empty() {
                // Allow a single trailing slash ("/a/b/" == "/a/b") and "/".
                normalized = false;
                continue;
            }
            if part == "." || part == ".." || part.len() > 255 {
                return Err(FsError::Invalid);
            }
        }
        if normalized || s == "/" {
            return Ok(FsPath { text: Arc::from(s) });
        }
        let mut text = String::with_capacity(s.len());
        for part in s.split('/').filter(|p| !p.is_empty()) {
            text.push('/');
            text.push_str(part);
        }
        if text.is_empty() {
            return Ok(FsPath::root());
        }
        Ok(FsPath { text: Arc::from(text) })
    }

    /// Path components, root-first.
    pub fn components(&self) -> std::str::SplitTerminator<'_, char> {
        self.text[1..].split_terminator('/')
    }

    /// The component at `index` (root-first).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.depth()`.
    pub fn component(&self, index: usize) -> &str {
        self.components().nth(index).expect("component index within depth")
    }

    /// Number of components (0 for root).
    pub fn depth(&self) -> usize {
        if self.is_root() {
            0
        } else {
            self.text.bytes().filter(|&b| b == b'/').count()
        }
    }

    /// Whether this is the root path.
    pub fn is_root(&self) -> bool {
        self.text.len() == 1
    }

    /// Final component, or `None` for root.
    pub fn name(&self) -> Option<&str> {
        self.components().next_back()
    }

    /// Parent path, or `None` for root.
    pub fn parent(&self) -> Option<FsPath> {
        if self.is_root() {
            return None;
        }
        match self.text.rfind('/') {
            Some(0) => Some(FsPath::root()),
            Some(i) => Some(FsPath { text: Arc::from(&self.text[..i]) }),
            None => unreachable!("normalized paths start with '/'"),
        }
    }

    /// Appends a component.
    ///
    /// # Panics
    ///
    /// Panics if `name` contains `/` or is empty (callers validate first).
    pub fn join(&self, name: &str) -> FsPath {
        assert!(!name.is_empty() && !name.contains('/'), "invalid component {name:?}");
        let base = if self.is_root() { "" } else { &self.text };
        FsPath { text: Arc::from(format!("{base}/{name}")) }
    }

    /// Whether `self` is an ancestor of (or equal to) `other`.
    pub fn is_prefix_of(&self, other: &FsPath) -> bool {
        self.is_root()
            || (other.text.starts_with(&*self.text)
                && other.text.as_bytes().get(self.text.len()).is_none_or(|&b| b == b'/'))
    }
}

impl std::fmt::Display for FsPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Formats as the component list, `FsPath { components: ["a", "b"] }`.
impl std::fmt::Debug for FsPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let components: Vec<&str> = self.components().collect();
        f.debug_struct("FsPath").field("components", &components).finish()
    }
}

impl std::str::FromStr for FsPath {
    type Err = FsError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FsPath::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_normalizes() {
        assert_eq!(FsPath::parse("/").unwrap(), FsPath::root());
        assert_eq!(FsPath::parse("/a/b/").unwrap(), FsPath::parse("/a/b").unwrap());
        assert_eq!(FsPath::parse("/a/b").unwrap().depth(), 2);
    }

    #[test]
    fn rejects_bad_paths() {
        for bad in ["", "a/b", "/a/./b", "/a/../b"] {
            assert_eq!(FsPath::parse(bad), Err(FsError::Invalid), "{bad:?}");
        }
        let long = format!("/{}", "x".repeat(256));
        assert_eq!(FsPath::parse(&long), Err(FsError::Invalid));
    }

    #[test]
    fn family_relations() {
        let p = FsPath::parse("/a/b/c").unwrap();
        assert_eq!(p.name(), Some("c"));
        assert_eq!(p.parent().unwrap().to_string(), "/a/b");
        assert!(FsPath::parse("/a").unwrap().is_prefix_of(&p));
        assert!(!FsPath::parse("/a/x").unwrap().is_prefix_of(&p));
        assert!(FsPath::root().is_prefix_of(&p));
        assert_eq!(FsPath::root().parent(), None);
    }

    #[test]
    fn display_round_trips() {
        for s in ["/", "/a", "/a/b/c"] {
            assert_eq!(FsPath::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn join_extends() {
        let p = FsPath::root().join("a").join("b");
        assert_eq!(p.to_string(), "/a/b");
        assert_eq!(p, FsPath::parse("/a/b").unwrap());
    }

    #[test]
    fn components_index_and_depth_agree() {
        let p = FsPath::parse("//a//bc/d/").unwrap();
        assert_eq!(p.to_string(), "/a/bc/d");
        assert_eq!(p.components().collect::<Vec<_>>(), ["a", "bc", "d"]);
        assert_eq!((p.depth(), p.component(1)), (3, "bc"));
        assert_eq!(FsPath::root().components().count(), 0);
        assert_eq!(FsPath::parse("///").unwrap(), FsPath::root());
        assert!(!FsPath::parse("/a/b").unwrap().is_prefix_of(&FsPath::parse("/a/bc").unwrap()));
        assert_eq!(format!("{p:?}"), r#"FsPath { components: ["a", "bc", "d"] }"#);
    }
}
