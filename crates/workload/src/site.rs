//! A website: resources, origins, layout.
//!
//! [`Website`] is the unit both measurement campaigns sample: the paper
//! takes "100 of the Alexa top 1M sites that fully support HTTP/2" for the
//! timeline and H1-vs-H2 campaigns and "100 of 10,000 ad-displaying sites"
//! for the ad-blocker campaign. The struct carries everything the browser,
//! metrics and perception layers need; validation enforces the structural
//! invariants the generator promises.

use serde::{Deserialize, Serialize};

use crate::resource::{Discovery, Resource, ResourceId, ResourceKind};

/// One origin (host) a website loads from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Origin {
    /// Hostname, unique within the site.
    pub host: String,
    /// Whether the origin negotiates HTTP/2 (all first-party origins in
    /// the Alexa-like corpus do; some third parties may not — webpeg's
    /// per-capture protocol choice can only downgrade them).
    pub supports_h2: bool,
    /// Whether this is a third-party origin (ads/trackers/widgets/CDNs
    /// not controlled by the site).
    pub third_party: bool,
}

/// A complete synthetic website.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Website {
    /// Stable site name, e.g. `site042.example`.
    pub name: String,
    /// Origin table; entry 0 is always the first-party origin serving
    /// the document.
    pub origins: Vec<Origin>,
    /// Resources; entry 0 is always the root HTML document.
    pub resources: Vec<Resource>,
    /// Page canvas width in CSS px.
    pub canvas_width: u32,
    /// Full page height in CSS px.
    pub page_height: u32,
    /// Fold line: content with `y <` this is above the fold (initial
    /// viewport height).
    pub fold_y: u32,
}

/// Structural-invariant violations detected by [`Website::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiteError {
    /// Resource 0 missing or not HTML / not root-discovered.
    BadRoot,
    /// A resource references an origin outside the origin table.
    DanglingOrigin(ResourceId),
    /// A `Discovery::Parent` points to a missing or later resource that
    /// creates a cycle (parents must precede children).
    BadParent(ResourceId),
    /// A visual resource has no rect or a zero-area rect.
    MissingRect(ResourceId),
    /// A rect extends beyond the page canvas.
    RectOutOfBounds(ResourceId),
    /// The origin table is empty or origin 0 is marked third-party.
    BadOrigins,
    /// A resource has zero body bytes (nothing to transfer).
    EmptyBody(ResourceId),
}

impl Website {
    /// The root document.
    pub fn root(&self) -> &Resource {
        &self.resources[0]
    }

    /// Total body bytes across all resources.
    pub fn total_bytes(&self) -> u64 {
        self.resources.iter().map(|r| r.body_bytes).sum()
    }

    /// Number of resources of a given kind.
    pub fn count_kind(&self, kind: ResourceKind) -> usize {
        self.resources.iter().filter(|r| r.kind == kind).count()
    }

    /// Total above-the-fold paintable area (the denominator of visual
    /// completeness): the sum of visible areas of visual resources,
    /// clipped at the fold.
    pub fn above_fold_area(&self) -> u64 {
        self.resources
            .iter()
            .filter_map(|r| r.rect.as_ref())
            .filter_map(|rect| rect.above_fold(self.fold_y))
            .map(|rect| rect.area())
            .sum()
    }

    /// Resources whose rects intersect the viewport (above the fold).
    pub fn above_fold_resources(&self) -> Vec<ResourceId> {
        self.resources
            .iter()
            .filter(|r| {
                r.rect
                    .as_ref()
                    .map(|rect| rect.above_fold(self.fold_y).is_some())
                    .unwrap_or(false)
            })
            .map(|r| r.id)
            .collect()
    }

    /// Check every structural invariant; returns all violations.
    pub fn validate(&self) -> Vec<SiteError> {
        let mut errs = Vec::new();
        if self.origins.is_empty() || self.origins[0].third_party {
            errs.push(SiteError::BadOrigins);
        }
        match self.resources.first() {
            Some(root)
                if root.kind == ResourceKind::Html && root.discovery == Discovery::Root => {}
            _ => errs.push(SiteError::BadRoot),
        }
        for (i, r) in self.resources.iter().enumerate() {
            if r.id != ResourceId(i as u32) {
                errs.push(SiteError::BadParent(r.id)); // ids must be dense
                continue;
            }
            if usize::from(r.origin.0) >= self.origins.len() {
                errs.push(SiteError::DanglingOrigin(r.id));
            }
            if r.body_bytes == 0 {
                errs.push(SiteError::EmptyBody(r.id));
            }
            if let Discovery::Parent { parent } = r.discovery {
                if parent.0 >= r.id.0 {
                    errs.push(SiteError::BadParent(r.id));
                }
            }
            if r.kind.is_visual() && r.kind != ResourceKind::Css {
                match &r.rect {
                    None => errs.push(SiteError::MissingRect(r.id)),
                    Some(rect) if rect.area() == 0 => errs.push(SiteError::MissingRect(r.id)),
                    Some(rect) => {
                        if rect.x + rect.w > self.canvas_width
                            || rect.y + rect.h > self.page_height
                        {
                            errs.push(SiteError::RectOutOfBounds(r.id));
                        }
                    }
                }
            }
        }
        errs
    }

    /// Resources discovered (directly or transitively) without executing
    /// any script — the set whose completion gates the `onload` event in
    /// the browser model. Script-injected resources (ads fetched by
    /// tracker JS) may finish after onload, which is exactly the
    /// "OnLoad underestimates" case from the paper's introduction.
    pub fn statically_discovered(&self) -> Vec<ResourceId> {
        self.resources
            .iter()
            .filter(|r| match r.discovery {
                Discovery::Root | Discovery::Html { .. } => true,
                Discovery::Parent { parent } => {
                    // CSS-referenced resources are static; JS-injected not.
                    self.resources[parent.0 as usize].kind == ResourceKind::Css
                }
            })
            .map(|r| r.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::{OriginRef, Rect};

    fn minimal_site() -> Website {
        Website {
            name: "test.example".into(),
            origins: vec![Origin { host: "test.example".into(), supports_h2: true, third_party: false }],
            resources: vec![Resource {
                id: ResourceId(0),
                kind: ResourceKind::Html,
                origin: OriginRef(0),
                body_bytes: 30_000,
                request_header_bytes: 400,
                response_header_bytes: 300,
                rect: Some(Rect { x: 0, y: 0, w: 1280, h: 2000 }),
                discovery: Discovery::Root,
                render_blocking: false,
                defer: false,
                server_think_us: 20_000,
            }],
            canvas_width: 1280,
            page_height: 2000,
            fold_y: 720,
        }
    }

    #[test]
    fn minimal_site_validates() {
        assert!(minimal_site().validate().is_empty());
    }

    #[test]
    fn detects_bad_root() {
        let mut s = minimal_site();
        s.resources[0].kind = ResourceKind::Image;
        assert!(s.validate().contains(&SiteError::BadRoot));
    }

    #[test]
    fn detects_dangling_origin() {
        let mut s = minimal_site();
        s.resources[0].origin = OriginRef(5);
        assert!(s.validate().contains(&SiteError::DanglingOrigin(ResourceId(0))));
    }

    #[test]
    fn detects_forward_parent() {
        let mut s = minimal_site();
        let mut img = s.resources[0].clone();
        img.id = ResourceId(1);
        img.kind = ResourceKind::Image;
        img.rect = Some(Rect { x: 0, y: 0, w: 100, h: 100 });
        img.discovery = Discovery::Parent { parent: ResourceId(1) }; // self-parent
        s.resources.push(img);
        assert!(s.validate().contains(&SiteError::BadParent(ResourceId(1))));
    }

    #[test]
    fn detects_rect_out_of_bounds() {
        let mut s = minimal_site();
        s.resources[0].rect = Some(Rect { x: 1000, y: 0, w: 500, h: 100 });
        assert!(s.validate().contains(&SiteError::RectOutOfBounds(ResourceId(0))));
    }

    #[test]
    fn above_fold_area_clips() {
        let s = minimal_site();
        // Root rect is 1280 wide, 2000 tall; fold at 720.
        assert_eq!(s.above_fold_area(), 1280 * 720);
    }

    #[test]
    fn statically_discovered_excludes_js_children() {
        let mut s = minimal_site();
        let base = s.resources[0].clone();
        // 1: a sync script.
        let mut js = base.clone();
        js.id = ResourceId(1);
        js.kind = ResourceKind::Js;
        js.rect = None;
        js.discovery = Discovery::Html { at_fraction: 0.2 };
        s.resources.push(js);
        // 2: an ad injected by that script.
        let mut ad = base.clone();
        ad.id = ResourceId(2);
        ad.kind = ResourceKind::Ad;
        ad.rect = Some(Rect { x: 0, y: 0, w: 300, h: 250 });
        ad.discovery = Discovery::Parent { parent: ResourceId(1) };
        s.resources.push(ad);
        // 3: a CSS file and 4: a font it references (static chain).
        let mut css = base.clone();
        css.id = ResourceId(3);
        css.kind = ResourceKind::Css;
        css.rect = None;
        css.discovery = Discovery::Html { at_fraction: 0.05 };
        s.resources.push(css);
        let mut font = base.clone();
        font.id = ResourceId(4);
        font.kind = ResourceKind::Font;
        font.rect = None;
        font.discovery = Discovery::Parent { parent: ResourceId(3) };
        s.resources.push(font);

        let static_ids = s.statically_discovered();
        assert!(static_ids.contains(&ResourceId(0)));
        assert!(static_ids.contains(&ResourceId(1)));
        assert!(!static_ids.contains(&ResourceId(2)), "JS-injected ad is dynamic");
        assert!(static_ids.contains(&ResourceId(3)));
        assert!(static_ids.contains(&ResourceId(4)), "CSS-referenced font is static");
    }

    #[test]
    fn serde_roundtrip() {
        let s = minimal_site();
        let json = serde_json::to_string(&s).unwrap();
        let back: Website = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
