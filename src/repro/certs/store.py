"""Trust store and chain/code-signature verification.

A host's trust decisions live here: which roots it trusts, which
certificates have been shoved into the *untrusted* store (Microsoft's
advisory 2718704 moved three Terminal Services certificates there to kill
the Flame update vector), and which serials are revoked (the response to
Stuxnet's stolen JMicron/Realtek certificates).
"""

from repro.certs.codesign import extract_signature
from repro.certs.certificate import KEY_USAGE_CA, KEY_USAGE_CODE_SIGNING
from repro.crypto.hashes import digest


class VerificationResult:
    """Outcome of a verification: truthy on success, explains failure."""

    def __init__(self, ok, reason, signer=None):
        self.ok = ok
        self.reason = reason
        self.signer = signer

    def __bool__(self):
        return self.ok

    def __repr__(self):
        status = "OK" if self.ok else "FAIL"
        return "VerificationResult(%s: %s)" % (status, self.reason)


class TrustStore:
    """Per-host (or per-organisation) certificate trust state."""

    def __init__(self, trusted_roots=()):
        self._roots = {cert.subject: cert for cert in trusted_roots}
        self._untrusted_fingerprints = set()
        self._revoked_serials = set()

    # -- administration ------------------------------------------------------

    def mark_untrusted(self, cert):
        """Move a certificate to the untrusted store (advisory 2718704)."""
        self._untrusted_fingerprints.add(cert.public_key.fingerprint())

    def revoke_serial(self, serial):
        """Revoke by serial — the vendor response to certificate theft."""
        self._revoked_serials.add(serial)

    def is_untrusted(self, cert):
        return cert.public_key.fingerprint() in self._untrusted_fingerprints

    def is_revoked(self, cert):
        return cert.serial in self._revoked_serials

    # -- verification ----------------------------------------------------------

    def verify_chain(self, chain, at_time=0, usage=KEY_USAGE_CODE_SIGNING):
        """Verify a leaf-first certificate chain.

        Checks, in order: untrusted store, revocation, validity window,
        key usage of the leaf, each link's signature, CA usage of the
        intermediates, and that the final issuer is a trusted root.
        """
        if not chain:
            return VerificationResult(False, "empty chain")
        leaf = chain[0]
        for cert in chain:
            if self.is_untrusted(cert):
                return VerificationResult(
                    False, "certificate %r is in the untrusted store" % cert.subject
                )
            if self.is_revoked(cert):
                return VerificationResult(
                    False, "certificate serial %s is revoked" % cert.serial
                )
            if not cert.valid_at(at_time):
                return VerificationResult(
                    False, "certificate %r outside validity window" % cert.subject
                )
        if not leaf.allows(usage):
            return VerificationResult(
                False,
                "leaf %r lacks %r usage (has %s)"
                % (leaf.subject, usage, sorted(leaf.usages)),
            )
        for child, parent in zip(chain, chain[1:]):
            if child.issuer != parent.subject:
                return VerificationResult(
                    False,
                    "broken chain: %r issued by %r, next link is %r"
                    % (child.subject, child.issuer, parent.subject),
                )
            if not parent.allows(KEY_USAGE_CA):
                return VerificationResult(
                    False, "intermediate %r is not a CA" % parent.subject
                )
            if not child.verify_signature(parent.public_key):
                return VerificationResult(
                    False, "bad signature on %r" % child.subject
                )
        top = chain[-1]
        root = self._roots.get(top.issuer)
        if root is None:
            return VerificationResult(
                False, "issuer %r is not a trusted root" % top.issuer
            )
        if self.is_untrusted(root):
            return VerificationResult(False, "root %r is untrusted" % root.subject)
        if not top.verify_signature(root.public_key):
            return VerificationResult(False, "bad signature on %r" % top.subject)
        return VerificationResult(True, "chain verifies to root %r" % root.subject,
                                  signer=leaf.subject)

    def verify_code_signature(self, image_bytes, pe_file, at_time=0):
        """Full Authenticode-style check on a parsed PE image.

        Verifies that (1) a signature is present, (2) the chain verifies
        for code signing, and (3) the leaf key's signature covers exactly
        the image's signed span under the chain's digest algorithm.
        """
        signature = extract_signature(pe_file)
        if signature is None:
            return VerificationResult(False, "image is unsigned")
        chain_result = self.verify_chain(signature.chain, at_time=at_time)
        if not chain_result:
            return chain_result
        covered = image_bytes[: pe_file.signed_span]
        leaf = signature.leaf
        if not leaf.public_key.verify(covered, signature.signature, signature.algorithm):
            return VerificationResult(False, "image digest mismatch")
        return VerificationResult(
            True,
            "image signed by %r (%s)" % (leaf.subject, signature.algorithm),
            signer=leaf.subject,
        )

    def image_digest(self, image_bytes, pe_file, algorithm="sha256"):
        """Digest of the signed span — what an analyst fingerprints."""
        return digest(algorithm, image_bytes[: pe_file.signed_span])
